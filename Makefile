# Developer entry points.  Everything here works on a fresh clone with
# nothing but the Go toolchain: ctslint is part of the module (see
# ARCHITECTURE.md, "Static analysis layer"), so `make lint` needs no
# network and no installed tools.

GO ?= go
BIN := bin

.PHONY: all build test race lint vet bench bench-e2e fmt clean

all: build lint test

build:
	$(GO) build ./...

# The full suite; includes the root ctslint gate (ctslint_test.go), the
# docs gates, and the golden determinism tests.
test:
	$(GO) test ./...

# The race job CI runs: the whole tree under the detector, -short to trim
# the scaling tests and skip the module-wide ctslint gate (the lint target
# covers it; it gains nothing from -race).
race:
	$(GO) test -race -short ./...

# The repository's own analyzer suite, standalone.
lint:
	$(GO) run ./cmd/ctslint ./...

# go vet with ctslint attached as its -vettool, plus vet's built-ins —
# incremental and build-cached, the editor-integration path.
vet: $(BIN)/ctslint
	$(GO) vet ./...
	$(GO) vet -vettool=$(BIN)/ctslint ./...

$(BIN)/ctslint: FORCE
	$(GO) build -o $(BIN)/ctslint ./cmd/ctslint

bench:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# The end-to-end job-path benchmark (cmd/ctsbench, see BENCHMARK.json),
# one 15 s run per workload at seed 1, built under .bench_build/.
E2E_WORKLOADS := synth_cold eco_resubmit cache_hits cluster_gateway

bench-e2e:
	for w in $(E2E_WORKLOADS); do \
		bash cmd/ctsbench/run.sh --workload $$w --seed 1 --seconds 15 --trace 0 || exit 1; \
	done

fmt:
	gofmt -w $$(git ls-files '*.go' | grep -v /testdata/)

clean:
	rm -rf $(BIN)

.PHONY: FORCE
FORCE:
