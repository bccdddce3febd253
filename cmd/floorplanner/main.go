// Command floorplanner solves relocation-aware floorplanning problems
// from the command line.
//
// Usage:
//
//	floorplanner -design SDR2 -engine exact -time 30s -ascii
//	floorplanner -design SDR3 -engine portfolio -time 10s
//	floorplanner -design SDR2 -engine milp-ho -trace   # telemetry table
//	floorplanner -design SDR2 -engine portfolio -members exact,constructive,tessellation
//	floorplanner -design SDR2 -fallback exact,milp-ho,constructive   # = -engine fallback -members ...
//	floorplanner -problem my-problem.json -svg plan.svg -out solution.json
//	floorplanner -session events.json -session-device fx70t -engine constructive
//	floorplanner -session seeded:200 -seed 7      # generated online workload
//
// A problem file is JSON with the shape of floorplanner.Problem; the
// built-in designs SDR, SDR2 and SDR3 reproduce the paper's case study.
//
// -session switches the binary into online mode: instead of one offline
// solve it replays an arrival/departure stream (a JSON array of session
// events, or "seeded:N" for a generated workload) through a stateful
// session — best-fit placement over free rectangles, floorplanner
// fallback via -engine, threshold-triggered defragmentation — and
// prints the placement and fragmentation summary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/logx"
	"repro/internal/sdr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "floorplanner:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		problemPath = flag.String("problem", "", "path to a problem JSON file")
		design      = flag.String("design", "", "built-in design: SDR, SDR2 or SDR3")
		engine      = flag.String("engine", "exact", "engine: "+strings.Join(floorplanner.EngineNames(), ", "))
		members     = flag.String("members", "", "comma-separated member engines of -engine portfolio (raced) or -engine fallback (tried in order); empty = the preset's default list")
		fallback    = flag.String("fallback", "", "comma-separated engine chain; shorthand for -engine fallback -members CHAIN")
		timeLimit   = flag.Duration("time", 60*time.Second, "solve time limit")
		seed        = flag.Int64("seed", 1, "seed for randomized engines")
		workers     = flag.Int("workers", 0, "parallel workers (engine dependent)")
		outPath     = flag.String("out", "", "write the solution as JSON to this file")
		ascii       = flag.Bool("ascii", true, "print the floorplan as ASCII art")
		svgPath     = flag.String("svg", "", "write the floorplan as SVG to this file")
		trace       = flag.Bool("trace", false, "print solve telemetry: per-span counters and the incumbent trajectory")
		sessionSpec = flag.String("session", "", "online mode: replay a JSON event stream from this file, or \"seeded:N\" to generate N events with -seed")
		sessionDev  = flag.String("session-device", "fx70t", "device for -session mode: fx70t or k160t")
		fragThresh  = flag.Float64("frag-threshold", 0, "fragmentation threshold for -session mode (0 = default, negative disables defragmentation)")
		logLevel    = flag.String("log-level", "info", "log level: "+logx.Levels)
		logFormat   = flag.String("log-format", "text", "log format: "+logx.Formats)
	)
	flag.Parse()

	// Results go to stdout; structured logs (engine warnings, guard
	// recoveries) go to stderr through the shared handler, so the two
	// binaries speak one logging dialect.
	log, err := logx.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(log)

	if *sessionSpec != "" {
		if *problemPath != "" || *design != "" {
			return fmt.Errorf("-session is an online mode; drop -problem/-design")
		}
		return runSession(*sessionSpec, *sessionDev, *engine, *fragThresh, *seed, *timeLimit, *outPath)
	}

	p, err := loadProblem(*problemPath, *design)
	if err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}

	if *fallback != "" {
		if *members != "" {
			return fmt.Errorf("-fallback and -members are mutually exclusive")
		}
		if *engine != "exact" && *engine != "fallback" {
			return fmt.Errorf("-fallback implies -engine fallback; drop -engine %s", *engine)
		}
		*engine, *members = "fallback", *fallback
	}
	var memberList []string
	if *members != "" {
		if *engine != "portfolio" && *engine != "fallback" {
			return fmt.Errorf("-members requires -engine portfolio or -engine fallback")
		}
		memberList = strings.Split(*members, ",")
	}

	solveOpts := floorplanner.Options{
		Engine:    *engine,
		TimeLimit: *timeLimit,
		Seed:      *seed,
		Workers:   *workers,
		Members:   memberList,
	}
	var rec *floorplanner.Recorder
	if *trace {
		rec = floorplanner.NewRecorder()
		solveOpts.Probe = rec
	}
	sol, err := floorplanner.Solve(context.Background(), p, solveOpts)
	if rec != nil {
		// Print the telemetry before the outcome so it survives even the
		// error paths below.
		fmt.Print(rec.Table())
		fmt.Println()
	}
	switch {
	case errors.Is(err, floorplanner.ErrInfeasible):
		fmt.Println("INFEASIBLE: no floorplan satisfies the constraints")
		return nil
	case errors.Is(err, floorplanner.ErrNoSolution):
		return fmt.Errorf("no solution found within %s (try a larger -time)", *timeLimit)
	case err != nil:
		return err
	}

	fmt.Print(sol.Summary(p))
	if *ascii {
		fmt.Println()
		fmt.Print(floorplanner.RenderASCII(p, sol))
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(floorplanner.RenderSVG(p, sol)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *svgPath)
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(sol, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *outPath)
	}
	return nil
}

// runSession is the -session online mode: replay an event stream
// through a facade Session and print what happened.
func runSession(spec, deviceName, engineName string, fragThresh float64, seed int64, budget time.Duration, outPath string) error {
	var dev *floorplanner.Device
	switch strings.ToLower(deviceName) {
	case "fx70t", "virtex5", "xc5vfx70t":
		dev = floorplanner.VirtexFX70T()
	case "k160t", "kintex7", "xc7k160t":
		dev = floorplanner.Kintex7K160T()
	default:
		return fmt.Errorf("unknown -session-device %q (want fx70t or k160t)", deviceName)
	}
	engine, err := floorplanner.NewEngine(engineName)
	if err != nil {
		return err
	}

	var events []floorplanner.SessionEvent
	if rest, ok := strings.CutPrefix(spec, "seeded:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n <= 0 {
			return fmt.Errorf("-session seeded:N needs a positive event count, got %q", rest)
		}
		events = floorplanner.GenerateWorkload(floorplanner.WorkloadConfig{
			Seed: seed, Events: n, Device: dev,
		})
	} else {
		data, err := os.ReadFile(spec)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &events); err != nil {
			return fmt.Errorf("parsing %s: %w", spec, err)
		}
	}
	if len(events) == 0 {
		return fmt.Errorf("event stream is empty")
	}

	mgr, err := floorplanner.NewSession(floorplanner.SessionConfig{
		Device:        dev,
		Engine:        engine,
		FragThreshold: fragThresh,
		SolveBudget:   budget,
	})
	if err != nil {
		return err
	}
	for i, ev := range events {
		res, err := mgr.Apply(ev)
		if err != nil {
			return fmt.Errorf("event %d (%s %q): %w", i+1, ev.Kind, ev.Name, err)
		}
		if res.Rejected && ev.Kind == floorplanner.SessionArrival {
			fmt.Printf("event %4d: rejected %q (%s)\n", res.Seq, ev.Name, res.Reason)
		}
		if d := res.Defrag; d != nil && d.Executed {
			fmt.Printf("event %4d: defrag %d moves, frag %.3f -> %.3f\n",
				d.AtEvent, d.Planned, d.FragBefore, d.FragAfter)
		}
	}

	snap := mgr.Snapshot()
	st := snap.Stats
	fmt.Printf("%d events on %s: %d placed (%d fallback), %d rejected, %d live\n",
		st.Events, snap.Device, st.Placed, st.PlacedFallback, st.Rejected, len(snap.Live))
	fmt.Printf("defrag: %d cycles, %d moves, %d corrupted frames\n",
		st.DefragCycles, st.DefragMoves, st.CorruptedFrames)
	fmt.Printf("final fragmentation %.3f, occupancy %.3f, reconfig busy %s\n",
		snap.Fragmentation, snap.Occupancy, snap.Reconfig.BusyTime.Round(time.Microsecond))
	if outPath != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", outPath)
	}
	return nil
}

func loadProblem(path, design string) (*core.Problem, error) {
	switch {
	case path != "" && design != "":
		return nil, fmt.Errorf("use either -problem or -design, not both")
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var p core.Problem
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		return &p, nil
	case strings.EqualFold(design, "SDR"):
		return sdr.Problem(), nil
	case strings.EqualFold(design, "SDR2"):
		return sdr.SDR2(), nil
	case strings.EqualFold(design, "SDR3"):
		return sdr.SDR3(), nil
	case design != "":
		return nil, fmt.Errorf("unknown design %q (want SDR, SDR2 or SDR3)", design)
	default:
		return nil, fmt.Errorf("specify -problem <file> or -design <name>")
	}
}
