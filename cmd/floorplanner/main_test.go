package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	floorplanner "repro"
	"repro/internal/sdr"
)

func TestLoadProblemBuiltins(t *testing.T) {
	for _, design := range []string{"SDR", "sdr2", "SDR3"} {
		p, err := loadProblem("", design)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", design, err)
		}
	}
	if _, err := loadProblem("", "nope"); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := loadProblem("", ""); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if _, err := loadProblem("x.json", "SDR"); err == nil {
		t.Fatal("conflicting inputs accepted")
	}
}

func TestLoadProblemFromFile(t *testing.T) {
	p := sdr.SDR2()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := loadProblem(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Regions) != 5 || len(back.FCAreas) != 6 {
		t.Fatal("problem lost in round trip")
	}
	if _, err := loadProblem(filepath.Join(t.TempDir(), "missing.json"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadProblem(bad, ""); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestSessionSeededFaults drives -session end to end: a seeded k160t
// workload under seed:7 fault injection prints its summary, whose
// counts are pinned, and writes the final snapshot as JSON.
func TestSessionSeededFaults(t *testing.T) {
	out := filepath.Join(t.TempDir(), "snap.json")
	var stdout bytes.Buffer
	err := run([]string{"-session", "seeded:250", "-session-device", "k160t", "-seed", "7",
		"-intensity", "0.6", "-engine", "constructive", "-time", "2s", "-faults", "seed:7", "-out", out}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"250 events on xc7k160t: 145 placed (0 fallback), 0 rejected, 40 live\n",
		"defrag: 16 cycles, 108 moves, 0 corrupted frames\n",
		"faults seed:7: 38 injected, 37 retries, 17 corruptions repaired, 2 rollbacks\n",
		"wrote " + out + "\n",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap floorplanner.SessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	st := snap.Stats
	if snap.Device != "xc7k160t" || st.Events != 250 || st.Placed != 145 || len(snap.Live) != 40 {
		t.Fatalf("snapshot device %s, %d events, %d placed, %d live", snap.Device, st.Events, st.Placed, len(snap.Live))
	}
	if st.CorruptedFrames != 0 || snap.Reconfig.FaultsInjected != 38 || snap.Reconfig.Rollbacks != 2 {
		t.Fatalf("snapshot stats %+v, reconfig %+v", st, snap.Reconfig)
	}
}

// TestSessionRejectsBadFlags: -session refuses what it cannot honor
// before replaying anything.
func TestSessionRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-session", "seeded:0"}, "positive event count"},
		{[]string{"-session", "seeded:10", "-faults", "bogus"}, "-faults"},
		{[]string{"-session", "seeded:10", "-intensity", "1.5"}, "-intensity 1.5 outside (0, 1]"},
		{[]string{"-session", "seeded:10", "-intensity", "0"}, "outside (0, 1]"},
		{[]string{"-session", "seeded:10", "-session-device", "nope"}, "unknown device"},
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one mentioning %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, stdout.String())
		}
	}
}
