# Tier-1 verification and build targets.
#
#   make check   format + vet + build + race tests (the CI gate)
#   make build   compile every package and the CLI/daemon binaries into bin/
#   make serve   run the floorplanning service daemon locally
#   make test      plain test run (no race detector; faster)
#   make bench     candidate-enumeration cache benchmarks (hit vs miss),
#                  branch-and-bound node cost (allocs/node), the mask
#                  overlap test and exact-search node cost (ns/node)
#   make obs-bench telemetry + profile-label overhead benchmarks (bare vs
#                  no-op vs recorder; labels off vs on)
#   make diag-smoke boot floorpland with chaos + fault injection, force an
#                  anomaly, and verify a diagnostic bundle lands (the CI
#                  diag job; artifacts under DIAG_SMOKE_DIR)
#   make bench-json run the floorbench harness and validate BENCH.json
#                  (tune with BENCH_INSTANCES/BENCH_ENGINES/BENCH_BUDGET/
#                   BENCH_REPEATS; CI runs a short smoke)
#   make bench-diff regression-gate BENCH.json against the committed
#                  baseline (BENCH_BASELINE, default BENCH_PR7.json):
#                  fails on significant p50 slowdowns, outcome drops or
#                  new budget violations, writes BENCH_DIFF.json
#   make sim-json  run the floorsim online-session driver and validate
#                  SIM.json (tune with SIM_DEVICE/SIM_EVENTS/SIM_SEED/
#                  SIM_INTENSITY; CI runs the seeded smoke)
#   make sim-faults run the floorsim soak under injected reconfiguration
#                  faults (SIM_FAULT_SEED) and validate the report —
#                  proves zero corrupted frames and zero lost tasks
#   make fuzz      short fuzz smoke over the wire-format decoders
#                  (FUZZTIME=10s per target by default)

GO       ?= go
BIN      := bin
FUZZTIME ?= 10s

BENCH_INSTANCES ?= sdr,sdr2,sdr3
BENCH_ENGINES   ?= exact,milp-ho,constructive
BENCH_BUDGET    ?= 2s
BENCH_REPEATS   ?= 1
BENCH_OUT       ?= BENCH.json

# Compare-gate knobs. The noise margins are deliberately generous for a
# repeats=1 run on shared CI hardware: a cell only regresses past BOTH
# +50% and +400ms on its median wall-clock.
BENCH_BASELINE    ?= BENCH_PR7.json
BENCH_NOISE_PCT   ?= 50
BENCH_NOISE_FLOOR ?= 400
BENCH_DIFF_OUT    ?= BENCH_DIFF.json

SIM_DEVICE    ?= fx70t
SIM_EVENTS    ?= 250
SIM_SEED      ?= 7
SIM_INTENSITY ?= 0.6
SIM_OUT       ?= SIM.json

SIM_FAULT_SEED ?= 7
SIM_FAULTS_OUT ?= SIM_FAULTS.json

.PHONY: check fmt vet build test race bench obs-bench diag-smoke bench-json bench-diff sim-json sim-faults fuzz serve clean

check: fmt vet build race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/floorplanner ./cmd/floorplanner
	$(GO) build -o $(BIN)/floorpland   ./cmd/floorpland
	$(GO) build -o $(BIN)/relocate     ./cmd/relocate
	$(GO) build -o $(BIN)/experiments  ./cmd/experiments
	$(GO) build -o $(BIN)/floorbench   ./cmd/floorbench
	$(GO) build -o $(BIN)/floorsim     ./cmd/floorsim
	$(GO) build -o $(BIN)/floorplanctl ./cmd/floorplanctl

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCandidate' -benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkMILPNodes' -benchmem ./internal/milp
	$(GO) test -run '^$$' -bench 'BenchmarkMaskOverlapsRect' -benchmem ./internal/grid
	$(GO) test -run '^$$' -bench 'BenchmarkExactSearch' -benchmem ./internal/exact

obs-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkObsOverhead|BenchmarkProfileLabelOverhead' -benchmem .

diag-smoke:
	./scripts/diag_smoke.sh

bench-json:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/floorbench ./cmd/floorbench
	$(BIN)/floorbench -instances $(BENCH_INSTANCES) -engines $(BENCH_ENGINES) \
		-budget $(BENCH_BUDGET) -repeats $(BENCH_REPEATS) -out $(BENCH_OUT) $(BENCH_FLAGS)
	$(BIN)/floorbench -validate $(BENCH_OUT)

bench-diff:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/floorbench ./cmd/floorbench
	$(BIN)/floorbench -compare $(BENCH_BASELINE) -noise-pct $(BENCH_NOISE_PCT) \
		-noise-floor $(BENCH_NOISE_FLOOR) -diff-out $(BENCH_DIFF_OUT) \
		$(BENCH_DIFF_FLAGS) $(BENCH_OUT)

sim-json:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/floorsim ./cmd/floorsim
	$(BIN)/floorsim -device $(SIM_DEVICE) -events $(SIM_EVENTS) -seed $(SIM_SEED) \
		-intensity $(SIM_INTENSITY) -out $(SIM_OUT)
	$(BIN)/floorsim -validate $(SIM_OUT)

sim-faults:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/floorsim ./cmd/floorsim
	$(BIN)/floorsim -device $(SIM_DEVICE) -events $(SIM_EVENTS) -seed $(SIM_SEED) \
		-intensity $(SIM_INTENSITY) -faults seed:$(SIM_FAULT_SEED) -out $(SIM_FAULTS_OUT)
	$(BIN)/floorsim -validate $(SIM_FAULTS_OUT)

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzProblemDecode      -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzSolveRequestDecode -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzDecode             -fuzztime $(FUZZTIME) ./internal/bitstream
	$(GO) test -run '^$$' -fuzz FuzzWALReplay          -fuzztime $(FUZZTIME) ./internal/session

serve: build
	$(BIN)/floorpland -addr :8080

clean:
	rm -rf $(BIN)
