# Tier-1 verification and build targets.
#
#   make check   format + vet + build + race tests, plus vet and tests of
#                the nested perfbench module (the CI gate)
#   make build   compile every package and the CLI/daemon binaries into bin/
#   make serve   run the floorplanning service daemon locally
#   make test      plain test run (no race detector; faster)
#   make bench     candidate-enumeration cache benchmarks (hit vs miss),
#                  branch-and-bound node cost (allocs/node), the mask
#                  overlap test, exact-search node cost (ns/node), the
#                  config-memory load/unload/relocate cost and the
#                  session's per-event Apply cost (in memory and durable)
#   make obs-bench telemetry + profile-label overhead benchmarks (bare vs
#                  no-op vs span-timing recorder; labels off vs on)
#   make diag-smoke boot floorpland with chaos + fault injection, force an
#                  anomaly, and verify one diagnostic bundle lands and the
#                  recovered solve's span seconds reach /metrics (the CI
#                  diag job; artifacts under DIAG_SMOKE_DIR)
#   make fuzz      short fuzz smoke over the wire-format decoders and the
#                  config-memory differential test (FUZZTIME=10s per
#                  target by default)

GO       ?= go
BIN      := bin
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race bench obs-bench diag-smoke fuzz serve clean

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
	$(GO) test -run '^$$' -bench 'BenchmarkConfigMemory' -benchmem -benchtime 2000x ./internal/bitstream
	$(GO) test -run '^$$' -bench 'BenchmarkSessionApply' -benchmem -benchtime 4000x ./internal/session

obs-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkObsOverhead|BenchmarkProfileLabelOverhead' -benchmem .

diag-smoke:
	./scripts/diag_smoke.sh

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzProblemDecode      -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzSolveRequestDecode -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzDecode             -fuzztime $(FUZZTIME) ./internal/bitstream
	$(GO) test -run '^$$' -fuzz FuzzConfigMemoryOps    -fuzztime $(FUZZTIME) ./internal/bitstream
	$(GO) test -run '^$$' -fuzz FuzzWALReplay          -fuzztime $(FUZZTIME) ./internal/session

serve: build
	$(BIN)/floorpland -addr :8080

clean:
	rm -rf $(BIN)
