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
//	floorplanner -session seeded:250 -session-device k160t -intensity 0.6 -faults seed:7
//
// A problem file is JSON with the shape of floorplanner.Problem; the
// built-in designs SDR, SDR2 and SDR3 reproduce the paper's case study.
//
// -session switches the binary into online mode: instead of one offline
// solve it replays an arrival/departure stream (a JSON array of session
// events, or "seeded:N" for a generated workload) through a stateful
// session — best-fit placement over free rectangles, floorplanner
// fallback via -engine, threshold-triggered defragmentation — and
// prints the placement and fragmentation summary. -intensity sets the
// generated workload's target occupancy, and -faults drives every frame
// load through a reconfiguration fault-injection plan (see
// reconfig.ParseFaultPlan); the summary then adds the retry, repair and
// rollback counts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	floorplanner "repro"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/logx"
	"repro/internal/reconfig"
	"repro/internal/sdr"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "floorplanner:", err)
		os.Exit(1)
	}
}

// run parses args and writes results to stdout; structured logs go to
// stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("floorplanner", flag.ContinueOnError)
	var (
		problemPath = fs.String("problem", "", "path to a problem JSON file")
		design      = fs.String("design", "", "built-in design: SDR, SDR2 or SDR3")
		engine      = fs.String("engine", "exact", "engine: "+strings.Join(floorplanner.EngineNames(), ", "))
		members     = fs.String("members", "", "comma-separated member engines of -engine portfolio (raced) or -engine fallback (tried in order); empty = the preset's default list")
		fallback    = fs.String("fallback", "", "comma-separated engine chain; shorthand for -engine fallback -members CHAIN")
		timeLimit   = fs.Duration("time", 60*time.Second, "solve time limit")
		seed        = fs.Int64("seed", 1, "seed for randomized engines")
		workers     = fs.Int("workers", 0, "parallel workers (engine dependent)")
		outPath     = fs.String("out", "", "write the solution as JSON to this file")
		ascii       = fs.Bool("ascii", true, "print the floorplan as ASCII art")
		svgPath     = fs.String("svg", "", "write the floorplan as SVG to this file")
		trace       = fs.Bool("trace", false, "print solve telemetry: per-span counters and the incumbent trajectory")
		sessionSpec = fs.String("session", "", "online mode: replay a JSON event stream from this file, or \"seeded:N\" to generate N events with -seed")
		sessionDev  = fs.String("session-device", "fx70t", "device for -session mode: fx70t or k160t")
		fragThresh  = fs.Float64("frag-threshold", 0, "fragmentation threshold for -session mode (0 = default, negative disables defragmentation)")
		intensity   = fs.Float64("intensity", 0.5, "target occupancy in (0, 1] of a -session seeded:N workload")
		faults      = fs.String("faults", "", "fault-injection plan for -session mode, e.g. seed:7 or script:transient,pass (empty disables)")
		logLevel    = fs.String("log-level", "info", "log level: "+logx.Levels)
		logFormat   = fs.String("log-format", "text", "log format: "+logx.Formats)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

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
		return runSession(stdout, sessionOptions{
			spec:          *sessionSpec,
			device:        *sessionDev,
			engine:        *engine,
			fragThreshold: *fragThresh,
			intensity:     *intensity,
			faults:        *faults,
			seed:          *seed,
			budget:        *timeLimit,
			out:           *outPath,
		})
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
		fmt.Fprint(stdout, rec.Table())
		fmt.Fprintln(stdout)
	}
	switch {
	case errors.Is(err, floorplanner.ErrInfeasible):
		fmt.Fprintln(stdout, "INFEASIBLE: no floorplan satisfies the constraints")
		return nil
	case errors.Is(err, floorplanner.ErrNoSolution):
		return fmt.Errorf("no solution found within %s (try a larger -time)", *timeLimit)
	case err != nil:
		return err
	}

	fmt.Fprint(stdout, sol.Summary(p))
	if *ascii {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, floorplanner.RenderASCII(p, sol))
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(floorplanner.RenderSVG(p, sol)), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *svgPath)
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(sol, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *outPath)
	}
	return nil
}

// sessionOptions are the -session mode's flags.
type sessionOptions struct {
	spec, device, engine, faults, out string
	fragThreshold, intensity          float64
	seed                              int64
	budget                            time.Duration
}

// runSession is the -session online mode: replay an event stream
// through a facade Session and print what happened.
func runSession(stdout io.Writer, o sessionOptions) error {
	dev, err := device.ByName(o.device)
	if err != nil {
		return fmt.Errorf("-session-device: %w", err)
	}
	if !(o.intensity > 0 && o.intensity <= 1) {
		return fmt.Errorf("-intensity %v outside (0, 1]", o.intensity)
	}
	plan, err := reconfig.ParseFaultPlan(o.faults)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	engine, err := floorplanner.NewEngine(o.engine)
	if err != nil {
		return err
	}

	var events []floorplanner.SessionEvent
	if rest, ok := strings.CutPrefix(o.spec, "seeded:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n <= 0 {
			return fmt.Errorf("-session seeded:N needs a positive event count, got %q", rest)
		}
		events = floorplanner.GenerateWorkload(floorplanner.WorkloadConfig{
			Seed: o.seed, Events: n, Intensity: o.intensity, Device: dev,
		})
	} else {
		data, err := os.ReadFile(o.spec)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &events); err != nil {
			return fmt.Errorf("parsing %s: %w", o.spec, err)
		}
	}
	if len(events) == 0 {
		return fmt.Errorf("event stream is empty")
	}

	mgr, err := floorplanner.NewSession(floorplanner.SessionConfig{
		Device:        dev,
		Engine:        engine,
		FragThreshold: o.fragThreshold,
		SolveBudget:   o.budget,
		Faults:        plan,
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
			fmt.Fprintf(stdout, "event %4d: rejected %q (%s)\n", res.Seq, ev.Name, res.Reason)
		}
		if d := res.Defrag; d != nil && d.Executed {
			fmt.Fprintf(stdout, "event %4d: defrag %d moves, frag %.3f -> %.3f\n",
				d.AtEvent, d.Planned, d.FragBefore, d.FragAfter)
		}
	}

	snap := mgr.Snapshot()
	st, rc := snap.Stats, snap.Reconfig
	fmt.Fprintf(stdout, "%d events on %s: %d placed (%d fallback), %d rejected, %d live\n",
		st.Events, snap.Device, st.Placed, st.PlacedFallback, st.Rejected, len(snap.Live))
	fmt.Fprintf(stdout, "defrag: %d cycles, %d moves, %d corrupted frames\n",
		st.DefragCycles, st.DefragMoves, st.CorruptedFrames)
	if plan != nil {
		fmt.Fprintf(stdout, "faults %s: %d injected, %d retries, %d corruptions repaired, %d rollbacks\n",
			o.faults, rc.FaultsInjected, rc.Retries, rc.CorruptionsRepaired, rc.Rollbacks)
	}
	fmt.Fprintf(stdout, "final fragmentation %.3f, occupancy %.3f, reconfig busy %s\n",
		snap.Fragmentation, snap.Occupancy, rc.BusyTime.Round(time.Microsecond))
	if o.out != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", o.out)
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
