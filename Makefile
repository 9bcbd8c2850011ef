GO ?= go
STATICCHECK ?= staticcheck
# Pinned so `make lint` reproduces across checkouts; CI installs exactly
# this version via `make staticcheck-install`. (A go.mod tool directive
# would be the cleaner pin, but the module deliberately has zero
# dependencies so fully offline checkouts still build — see DESIGN.md
# "Static analysis".)
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build test test-short race determinism profile bench-json vet lint staticcheck-install fmt-check check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Determinism gate: run the experiment-facing determinism regressions twice
# under the race detector — every makespan, recovery stat and sweep output
# must be byte-identical run-to-run (see DESIGN.md "Concurrency and
# determinism"). Includes the virtual-time kill-fence configurations: a
# failure landing mid-checkpoint-wave under a storage bandwidth model,
# exact-tie kill stamps, two victims in one round, a failure during an
# in-progress recovery round, the blocked-scope-peer drain (the naive
# pre-kill drain deadlock regression), and the E6 store-fault sweep
# (shard kills ordered in virtual time during recovery; shared/sharded/
# ec/replica survival outcomes must be byte-identical run-to-run), and the
# delivery plane's scripted differential test against its closed-form
# oracle (TestPlaneMatchesOracleSchedulingIndependent).
determinism:
	$(GO) test -race -count=2 -run 'Reproducible|ByteStable|SchedulingIndependent|AwaitTurn' ./internal/harness/ ./internal/transport/ ./internal/mpi/

# CPU profile of the np=1024 HydEE smoke workload — the first step of the
# "profile a 1024-rank run end-to-end" roadmap item. Leaves cpu.prof and
# the test binary hydee-mpi.test; inspect with
#   go tool pprof hydee-mpi.test cpu.prof
profile:
	$(GO) test -run 'TestHydEESmoke1024' -count=1 -cpuprofile cpu.prof -o hydee-smoke.test .
	@echo "profile written to cpu.prof; open with: go tool pprof hydee-smoke.test cpu.prof"

# Append one wall-clock performance point for the np=1024 smoke workload
# to BENCH_hydee.json (one JSON line per invocation — a throughput series
# over commits). Virtual-time fields in the line are deterministic; only
# wall_ms / events_per_sec measure the machine. The bench pins the ideal
# network, so the series stays comparable.
bench-json:
	$(GO) run ./cmd/hydee bench -out BENCH_hydee.json

vet:
	$(GO) vet ./...

# Static analysis beyond vet: hydee's own determinism analyzers first
# (wallclock, maprange, lockdiscipline, selectorder — see DESIGN.md
# "Static analysis"), then staticcheck. hydee-lint builds from the
# standard library only, so the full determinism suite runs even on
# offline checkouts where x/tools-based linters cannot be installed;
# staticcheck is not vendored and degrades to a notice when absent,
# while CI installs the pinned version and gets the full run.
lint: vet
	$(GO) run ./cmd/hydee-lint ./...
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (make staticcheck-install for the pinned $(STATICCHECK_VERSION))"; \
	fi

# Install the exact staticcheck version `make lint` is pinned to.
staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: build vet fmt-check test
