# Tier-1 verification and build targets.
#
#   make check   format + vet + build + race tests, plus vet and tests of
#                the nested perfbench module (the CI gate)
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

SIM_DEVICE    ?= fx70t
SIM_EVENTS    ?= 250
SIM_SEED      ?= 7
SIM_INTENSITY ?= 0.6
SIM_OUT       ?= SIM.json

SIM_FAULT_SEED ?= 7
SIM_FAULTS_OUT ?= SIM_FAULTS.json

.PHONY: check fmt vet build test race bench obs-bench diag-smoke sim-json sim-faults fuzz serve clean

# perfbench is a nested module, so ./... in vet and race never builds it.
check: fmt vet build race
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

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
