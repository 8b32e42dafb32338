# Build/test/verification entry points. `make ci` is the tier-1 gate:
# build + vet + gofmt cleanliness + tests. `make help` lists everything.

GO ?= go
REV := $(shell git rev-parse --short HEAD)

.PHONY: all help build test test-386 race vet vet-cross fmt-check docs-check examples-check bce-check perfbench-check bench bench-save bench-cmp bench-gate bench-gate-smoke chaos slo-smoke fuzz-smoke ci

all: build

help:
	@echo "make build       compile all packages"
	@echo "make test        run the test suite"
	@echo "make vet         go vet"
	@echo "make vet-cross   go vet the kernel packages for arm64 (the non-AVX2 fallback must compile)"
	@echo "                 and the PCM16 codec for s390x (its big-endian file)"
	@echo "make test-386    run the kernel package tests as GOARCH=386 (the non-amd64 kernels, executed)"
	@echo "make race        run the core package tests under the race detector (workers, streams, registry)"
	@echo "make fmt-check   fail if gofmt would change anything"
	@echo "make docs-check  fail on undocumented exported identifiers, dangling .md references, or an"
	@echo "                 api.txt that differs from the exported surface (cmd/docscheck; rewrite the"
	@echo "                 file with go run ./cmd/docscheck -update-api)"
	@echo "make examples-check  build + vet the examples so they cannot rot silently"
	@echo "make bce-check   fail if bounds checks reappear in the kernel hot loops (bce_clean.txt)"
	@echo "make perfbench-check  vet + self-test the perfbench module (its own go.mod, consumes core's API)"
	@echo "make bench       run hot-path + evaluation benchmarks (-benchmem)"
	@echo "make bench-save  run benchmarks and save BENCH_<rev>.json (perf trajectory)"
	@echo "make bench-cmp   diff two saved runs: make bench-cmp BASE=BENCH_a.json HEAD=BENCH_b.json"
	@echo "make bench-gate  rerun the hot-path benchmarks and fail if any regressed >GATE_TOL% (default 25)"
	@echo "                 against the committed baseline (BASE=..., default: BENCH_<rev>.json of the"
	@echo "                 nearest ancestor of HEAD)"
	@echo "make bench-gate-smoke  one-iteration bench-gate (-benchtime 1x, huge tolerance): catches"
	@echo "                 deleted or broken gated benchmarks without timing anything"
	@echo "make chaos       fault-matrix chaos suite under -race -count=2 (netfront resilience gate)"
	@echo "make slo-smoke   one-second open-loop load run against a live front end (zero protocol errors)"
	@echo "make fuzz-smoke  run every Fuzz* target for FUZZTIME (default 5s) each"
	@echo "make ci          tier-1 gate: build + vet + vet-cross + fmt-check + docs/examples/bce checks + test + test-386 + race"
	@echo "                 + perfbench-check + chaos + slo-smoke + bench-gate-smoke + fuzz-smoke"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The kernel packages carry amd64 assembly (the AVX2 GEMM micro-kernel, the
# AVX2 frame kernel and the CPUID probe) with a pure-Go fallback for every
# other GOARCH, including the paper's ARM target. An amd64 build never
# compiles the fallback files, so vet them for arm64 too; amd64 `go vet`
# already checks the assembly frame layouts. The PCM16 codec's
# word-at-a-time file builds only on big-endian GOARCHes, so it is vetted
# for s390x; no big-endian host runs it.
vet-cross:
	GOARCH=arm64 $(GO) vet ./internal/cpufeat ./internal/tflm ./internal/dsp
	GOARCH=s390x $(GO) vet ./internal/pcm

# Vetting compiles the fallback files; this runs them. A 386 binary executes
# on an amd64 host without emulation, takes the !amd64 build of every kernel
# package, and has a 32-bit int, so it also catches int-overflow constants
# (the cache model's 64-bit addresses and the codec's byte views included).
test-386:
	GOARCH=386 $(GO) test ./internal/cpufeat ./internal/dsp ./internal/tflm ./internal/pcm ./internal/hw

# The server workers, stream sequencer and registry are lock- and
# channel-heavy; run their whole test suite under the race detector, not
# just the netfront fault matrix that `chaos` covers.
race:
	$(GO) test -race -count=1 ./internal/core/

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Godoc contract: every exported identifier in the audited engine packages
# carries a doc comment, and api.txt lists the module's exported surface
# exactly (see cmd/docscheck for the exact rules). A change that adds or
# removes an export runs `go run ./cmd/docscheck -update-api` and commits
# the api.txt diff.
docs-check:
	$(GO) run ./cmd/docscheck

# Examples are real programs; building and vetting them in CI keeps them
# from rotting when the APIs they demonstrate move.
examples-check:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

# Bounds-check-elimination contract: the kernel inner loops listed in
# bce_clean.txt must compile with zero surviving bounds checks
# (cmd/bcecheck compiles internal/tflm + internal/dsp with
# -gcflags=-d=ssa/check_bce and maps the compiler's findings to functions).
bce-check:
	$(GO) run ./cmd/bcecheck

# The end-to-end benchmark driver is a separate module (perfbench/go.mod,
# replace repro => ../), so `go build ./...` never compiles it. Vetting and
# self-testing it here makes an API change in core that breaks the
# benchmark fail CI instead of only the benchmark run.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test .

# Hot-path and evaluation benchmarks with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Snapshot the benchmarks as BENCH_<rev>.json so regressions are diffable
# PR over PR (cmd/benchjson parses the go test output to JSON).
bench-save:
	$(GO) test -run '^$$' -bench . -benchmem . | $(GO) run ./cmd/benchjson -save BENCH_$(REV).json

# Compare two saved snapshots: make bench-cmp BASE=BENCH_old.json HEAD=BENCH_new.json
bench-cmp:
	@test -n "$(BASE)" -a -n "$(HEAD)" || { echo "usage: make bench-cmp BASE=old.json HEAD=new.json"; exit 2; }
	$(GO) run ./cmd/benchjson -cmp $(BASE) $(HEAD)

# Regression gate for the hot benchmarks: rerun them and diff against the
# committed baseline snapshot (unless BASE= overrides: the BENCH_<rev>.json
# whose <rev> is the nearest ancestor of HEAD in `git log` order — file
# mtimes are checkout order in a fresh clone, not history order);
# a gated benchmark more than GATE_TOL% slower fails the target. The
# tolerance is generous because shared CI hosts are noisy — tighten locally
# with GATE_TOL=10. The lists below are alternations of benchmark names;
# the -gate patterns anchor each name (^(list)(/|$)) so a gate covers
# exactly the listed benchmarks and their sub-benchmarks, never a longer
# name that merely starts with a listed one. The `go test -bench` selector
# stays unanchored.
GATE_DEFAULT_BENCHES ?= BenchmarkFFTFixed512|BenchmarkFrontendExtract|BenchmarkInterpreterInvoke|BenchmarkInvokeBatch|BenchmarkStreamingExtract|BenchmarkGEMMMicroKernel|BenchmarkNetServerThroughput|BenchmarkRegistryThroughput|BenchmarkRegistrySwapUnderLoad|BenchmarkRegistryDegraded|BenchmarkTable1QueryOMG|BenchmarkSecureMicCapture
GATE_TOL ?= 25
# The SLO gate (ISSUE 10): BenchmarkServedTailLatency's median-of-3 p99
# under open-loop load. A p99 is an order statistic of a live queueing
# system on a shared 1-CPU host — run-to-run spread is ~1.6× even after
# the median-of-sub-runs smoothing — so its band polices order-of-
# magnitude tail blowups (a queueing regression at fixed offered rate
# multiplies p99), not percent-level drift.
GATE_SLO_BENCHES ?= BenchmarkServedTailLatency
GATE_SLO_TOL ?= 100
GATE_BENCHES ?= $(GATE_DEFAULT_BENCHES)|$(GATE_SLO_BENCHES)
# The inference and frontend hot loops get a tighter leash: the PR-5-era 15%
# InterpreterInvoke regression class must fail the gate, not slide under the
# generous noise tolerance above. InvokeBatch (now one Invoke per staged
# row) and StreamingExtract joined after the kernel-tier-2 pass so those
# paths cannot silently erode either.
GATE_TIGHT_BENCHES ?= BenchmarkInterpreterInvoke|BenchmarkInvokeBatch|BenchmarkStreamingExtract
GATE_TIGHT_TOL ?= 12
GATE_BENCHTIME ?=
bench-gate:
	@set -e; base="$(BASE)"; \
	if [ -z "$$base" ]; then \
		for h in $$(git log --format=%H HEAD); do \
			for f in BENCH_*.json; do \
				[ -e "$$f" ] || continue; r="$${f#BENCH_}"; r="$${r%.json}"; \
				case "$$h" in "$$r"*) base="$$f"; break 2;; esac; \
			done; \
		done; \
	fi; \
	test -n "$$base" || { echo "bench-gate: no BENCH_*.json baseline found (run make bench-save)"; exit 2; }; \
	echo "bench-gate: baseline $$base"; \
	scratch="$$(mktemp -d /tmp/bench_gate.XXXXXX)"; trap 'rm -rf "$$scratch"' EXIT; \
	$(GO) test -run '^$$' -bench '$(GATE_BENCHES)' $(if $(GATE_BENCHTIME),-benchtime $(GATE_BENCHTIME)) -benchmem . > "$$scratch/out.txt" || { cat "$$scratch/out.txt"; echo "bench-gate: benchmark run failed"; exit 1; }; \
	$(GO) run ./cmd/benchjson -save "$$scratch/head.json" < "$$scratch/out.txt"; \
	$(GO) run ./cmd/benchjson -cmp -tol $(GATE_TOL) -gate '^($(GATE_DEFAULT_BENCHES))(/|$$)' "$$base" "$$scratch/head.json"; \
	$(GO) run ./cmd/benchjson -cmp -tol $(GATE_TIGHT_TOL) -gate '^($(GATE_TIGHT_BENCHES))(/|$$)' "$$base" "$$scratch/head.json"; \
	$(GO) run ./cmd/benchjson -cmp -tol $(GATE_SLO_TOL) -gate '^($(GATE_SLO_BENCHES))(/|$$)' "$$base" "$$scratch/head.json"

# CI smoke form of the gate: one iteration per gated benchmark with an
# effectively-infinite tolerance. Single-iteration timings are meaningless,
# so this does not police performance — it makes a PR that silently deletes
# or breaks a gated benchmark fail `make ci` instead of only `make
# bench-gate` (benchjson already fails on removed gated benchmarks).
bench-gate-smoke:
	@$(MAKE) --no-print-directory bench-gate GATE_BENCHTIME=1x GATE_TOL=100000 GATE_TIGHT_TOL=100000 GATE_SLO_TOL=100000

# Resilience gate: the fault-matrix chaos suite (faultconn profiles against
# a live front end — transport faults, swap storm, and the ISSUE 9
# panic-storm self-healing round) under the race detector, twice, plus the
# harness's own determinism tests. See ISSUE 6 / ARCHITECTURE.md "Failure
# semantics" and "Health, breakers & overload control".
chaos:
	$(GO) test -race -count=2 -run 'TestServerSurvivesFaultMatrix' ./internal/netfront/
	$(GO) test -race -count=2 ./internal/netfront/faultconn/

# SLO smoke: a one-second open-loop load-generator run against a live
# in-process front end must complete requests with zero protocol errors
# (slo_test.go). Keeps the whole loadgen → client → netfront → core path
# exercised on every CI run without timing anything.
slo-smoke:
	$(GO) test -run 'TestSLOSmoke' -count=1 .

# Fuzz smoke: every Fuzz* target in the module, FUZZTIME each, so a crash
# the checked-in seed corpora do not reach still surfaces on every CI run.
# A failure leaves its input under the package's testdata/fuzz: fix the bug
# it found and keep the input as a seed.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -e; $(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do \
		for name in $$(cat "$$dir"/*_test.go 2>/dev/null | sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p'); do \
			echo "fuzz-smoke: $$pkg $$name"; \
			$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) "$$pkg"; \
		done; \
	done

ci: build vet vet-cross fmt-check docs-check examples-check bce-check perfbench-check test test-386 race chaos slo-smoke bench-gate-smoke fuzz-smoke
	@echo "ci: OK"
