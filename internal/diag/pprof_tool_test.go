package diag

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pprofTool runs `go tool pprof` with args over the profile bytes and
// returns its report. The toolchain's pprof reads local profiles
// offline; the test is skipped only when no go binary is on PATH.
func pprofTool(t *testing.T, profile []byte, args ...string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH to run go tool pprof")
	}
	path := filepath.Join(t.TempDir(), "profile.pprof")
	if err := os.WriteFile(path, profile, 0o644); err != nil {
		t.Fatal(err)
	}
	cmdArgs := append(append([]string{"tool", "pprof"}, args...), path)
	out, err := exec.Command(goBin, cmdArgs...).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("go tool pprof %v: %v\n%s", args, err, exit.Stderr)
		}
		t.Fatalf("go tool pprof %v: %v", args, err)
	}
	return string(out)
}

// rawSampleLine matches one sample row of `go tool pprof -raw`: the
// sample count and CPU nanoseconds, then the location ids.
var rawSampleLine = regexp.MustCompile(`(?m)^\s*\d+\s+\d+:`)

// assertCPUProfile checks a `go tool pprof -raw` report describes a CPU
// profile (cpu period and a cpu sample dimension) and reports whether it
// holds any samples.
func assertCPUProfile(t *testing.T, raw string) (hasSamples bool) {
	t.Helper()
	if !strings.Contains(raw, "PeriodType: cpu nanoseconds") || !strings.Contains(raw, "cpu/nanoseconds") {
		t.Fatalf("profile has no cpu dimension:\n%s", raw)
	}
	return rawSampleLine.MatchString(raw)
}

// pprofTags parses a `go tool pprof -tags` report into tag key -> the
// values its samples carry.
func pprofTags(report string) map[string][]string {
	tags := map[string][]string{}
	key := ""
	for _, line := range strings.Split(report, "\n") {
		line = strings.TrimSpace(line)
		if k, _, ok := strings.Cut(line, ": Total "); ok {
			key = k
		} else if _, v, ok := strings.Cut(line, "): "); ok && key != "" {
			tags[key] = append(tags[key], v)
		}
	}
	return tags
}
