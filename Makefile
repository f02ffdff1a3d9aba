# Local entry points mirroring .github/workflows/ci.yml.

GO ?= go

# bench-json knobs: which benchmarks make up the recorded perf set, how
# long to run each, and where the JSON lands. The default output is
# gitignored: the committed BENCH_pr*.json files are the baselines CI's
# ratio gates read, so recording one is an explicit BENCH_OUT=... choice.
BENCH_SET  ?= SteadyStateAllocs|QueueChurn|PrepareCompleteContention|BatchedSpawn|AblationSchedulerSubstrate|AblationSegmentSize|AblationQueueVsChannel|AblationStealBatch|BoundVsUnbound|BoundedVsUnbounded|Reducer|HypermapVsLockedMap|Sharded
BENCH_TIME ?= 300ms
BENCH_OUT  ?= bench-local.json

.PHONY: all build vet fmt-check test race bench-smoke bench-json quickcheck soak soak-ci docs smoke ci

# soak knobs: steps per policy, base seed, and the config preset
# (internal/soak: ci / default / heavy). The nightly workflow raises
# SOAK_STEPS ~10x over the PR gate.
SOAK_STEPS    ?= 2000000
SOAK_CI_STEPS ?= 200000
SOAK_SEED     ?= 1
SOAK_CONFIG   ?= heavy

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The scheduler and queue packages must be race-clean.
race:
	$(GO) test -race -short ./internal/...

# Compile-and-run every benchmark once so benchmark code cannot bit-rot.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Run the recorded perf set with allocation reporting and emit the
# machine-readable result file (name, iterations, ns/op, allocs/op and
# custom metrics like steals/op) for the perf trajectory. The text
# output goes through an intermediate file so a benchmark failure fails
# the target instead of being swallowed by the pipe.
bench-json:
	$(GO) test -bench='$(BENCH_SET)' -benchmem -benchtime=$(BENCH_TIME) -run='^$$' . > $(BENCH_OUT).txt
	$(GO) run ./cmd/benchjson < $(BENCH_OUT).txt > $(BENCH_OUT)
	@rm -f $(BENCH_OUT).txt
	@echo "wrote $(BENCH_OUT)"

# Serializability verifier: random programs against the serial elision,
# under both scheduling substrates, plus the hyperqueue regression tests
# under the race detector.
quickcheck:
	$(GO) run ./cmd/quickcheck -n 200
	REPRO_SCHED=goroutine $(GO) run ./cmd/quickcheck -n 200
	$(GO) run ./cmd/quickcheck -n 100 -queues 2
	REPRO_SCHED=goroutine $(GO) run ./cmd/quickcheck -n 100 -queues 2
	$(GO) run ./cmd/quickcheck -n 100 -sharded
	REPRO_SCHED=goroutine $(GO) run ./cmd/quickcheck -n 100 -sharded
	REPRO_STEAL_BATCH=1 $(GO) run ./cmd/quickcheck -n 100
	$(GO) test -race -count=3 -run 'Regression' ./internal/core

# Long-horizon lifecycle fuzzing (internal/soak): a config-driven op mix
# over a long-lived runtime with invariant sweeps, pool-accounting
# audits and replay-window determinism checks. `make soak` is the
# operator entry point — hours of churn at the heavy preset under both
# scheduling policies. Any failure prints a FAIL line with a
# copy-pasteable replay command.
soak:
	$(GO) run ./cmd/soakfuzz -config $(SOAK_CONFIG) -policy steal -seed $(SOAK_SEED) -steps $(SOAK_STEPS)
	$(GO) run ./cmd/soakfuzz -config $(SOAK_CONFIG) -policy goroutine -seed $(SOAK_SEED) -steps $(SOAK_STEPS)

# Bounded soak for the PR gate: both policies under the race detector —
# once at the ci preset and once at the chaos preset, which stripes
# cancellations, queue poisonings and deadline probes through the op mix
# at full depth — plus injected-bug smoke runs (a model-invisible value
# and a spurious cancellation) proving the harness still detects and
# replays both fault classes deterministically, and the Short-guarded
# sweeps at full depth (plain `go test` runs them without -short).
soak-ci:
	$(GO) run -race ./cmd/soakfuzz -config ci -policy steal -seed $(SOAK_SEED) -steps $(SOAK_CI_STEPS)
	$(GO) run -race ./cmd/soakfuzz -config ci -policy goroutine -seed $(SOAK_SEED) -steps $(SOAK_CI_STEPS)
	$(GO) run -race ./cmd/soakfuzz -config chaos -policy steal -seed $(SOAK_SEED) -steps $(SOAK_CI_STEPS)
	$(GO) run -race ./cmd/soakfuzz -config chaos -policy goroutine -seed $(SOAK_SEED) -steps $(SOAK_CI_STEPS)
	@echo "soak-ci: verifying fault injection is detected (expect FAIL + replay line)"
	@if $(GO) run ./cmd/soakfuzz -config ci -policy steal -seed 3 -steps 9000 -fault 4321 >/tmp/soak-fault.out 2>&1; then \
		echo "soak-ci: injected fault was NOT detected"; cat /tmp/soak-fault.out; exit 1; \
	else \
		grep -m1 '^FAIL soak' /tmp/soak-fault.out; echo "soak-ci: injected fault detected ✓"; \
	fi
	@echo "soak-ci: verifying a spurious cancellation is detected (expect FAIL + replay line)"
	@if $(GO) run ./cmd/soakfuzz -config ci -policy steal -seed 3 -steps 9000 -fault 4321 -faultkind cancel >/tmp/soak-cancel.out 2>&1; then \
		echo "soak-ci: injected cancellation was NOT detected"; cat /tmp/soak-cancel.out; exit 1; \
	else \
		grep -m1 '^FAIL soak' /tmp/soak-cancel.out; echo "soak-ci: injected cancellation detected ✓"; \
	fi
	$(GO) test -race -count=1 ./internal/soak/
	$(GO) test -count=1 ./internal/core/ ./internal/workloads/...

# Documentation is executable: the swan Example functions are the code
# samples README/ARCHITECTURE point at, and running them catches doc rot.
docs:
	$(GO) test -run Example -v ./swan

# Run the one command-line door per paper workload on a small input.
# Each run fails unless its output checks out: filededup's round trip,
# imagesearch's comparison with the serial elision, and paperbench's
# serial check of every bzip2 model.
smoke:
	$(GO) run ./examples/filededup -size 2097152
	$(GO) run ./examples/imagesearch -images 32
	$(GO) run ./cmd/paperbench -exp bzip2 -reps 1 -cores 2

ci: build vet fmt-check test race bench-smoke quickcheck soak-ci docs smoke
