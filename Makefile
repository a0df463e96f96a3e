# Tier-1 gate: everything must build, vet clean, and pass tests under
# the race detector. CI and pre-commit both run `make check`.

GO ?= go

# Combined statement coverage required of internal/serve +
# internal/search + internal/dfg + internal/sched.
COVER_MIN ?= 70

.PHONY: check build vet test hit-allocs test-short loc loc-check exports doc-names fairness cluster-e2e bench bench-smoke repo-bench-smoke experiments bench-guard paper-guard fuzz-smoke lint cover cover-check run-flexerd

check: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# $(call named-tests,FLAGS,NAMES,PACKAGES) runs `go test FLAGS -run
# NAMES PACKAGES` for a |-separated list of test names, after checking
# with `go test -list` that each name matches a test in PACKAGES: a -run
# pattern that matches nothing passes with "no tests to run", so a
# deleted or renamed test would turn the target into a no-op.
define named-tests
	@for n in $(subst |, ,$(2)); do \
		out=$$($(GO) test -list "$$n" $(3)) || { echo "$$out"; exit 1; }; \
		echo "$$out" | grep -q '^Test' || { echo "named-tests: $$n matches no test in $(3)"; exit 1; }; \
	done
	$(GO) test $(1) -run '$(2)' $(3)
endef

# Non-test Go lines of the three packages ROADMAP's collapse item
# targets, of the two the dense tile index runs through with sched
# (spm, dfg), of the one file ROADMAP sets a target for (repair.go),
# of the experiment harness (the registry and its command), of the
# schedule replay's readers (verify, trace, stats: ROADMAP's replay
# item budgets against their sum), and of the repository outside
# bench/; plus the lines of docs/ARCHITECTURE.md, kept a map, and of
# every page under docs/, so text moved out of the map shows as growth
# elsewhere. CI's check job echoes this, so each PR's log records
# progress against the line targets.
loc:
	@for d in internal/sched internal/search internal/serve internal/spm internal/dfg; do \
		printf '%-24s %6d\n' $$d $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done
	@printf '%-24s %6d\n' sched/repair.go $$(wc -l < internal/sched/repair.go)
	@printf '%-24s %6d\n' experiments+flexerbench $$(find internal/experiments cmd/flexerbench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@printf '%-24s %6d\n' verify+trace+stats $$(find internal/verify internal/trace internal/stats -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@printf '%-24s %6d\n' docs/ARCHITECTURE.md $$(wc -l < docs/ARCHITECTURE.md)
	@printf '%-24s %6d\n' 'docs (all .md)' $$(find docs -name '*.md' | xargs cat | wc -l)
	@printf '%-24s %6d\n' 'total (no bench)' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)

# The ratchet on those counts: fail when a row of `make loc` exceeds its
# ceiling in loc-ceilings.txt (a row with no ceiling fails too). A change
# that has to grow past a ceiling raises it in the same diff, so the
# growth shows in review; one that shrinks a row lowers it.
loc-check:
	@$(MAKE) --no-print-directory -s loc | awk ' \
		{ row = $$0; sub(/ +[0-9]+$$/, "", row) } \
		NR == FNR { if (row !~ /^#/) ceil[row] = $$NF; next } \
		!(row in ceil) { printf "loc-check: no ceiling for %s\n", row; bad = 1; next } \
		$$NF > ceil[row] { printf "loc-check: %s is %d lines, over its ceiling of %d\n", row, $$NF, ceil[row]; bad = 1 } \
		END { exit bad }' loc-ceilings.txt -

# Exported functions and methods of the internal packages that nothing
# outside their package uses but tests, matched by type
# (scripts/exports_test.go type-checks the module and bench/ from
# source): passing when there is none, and failing with the list
# otherwise, so test-only exports cannot creep back. `go test ./...`
# runs the same test.
exports:
	$(call named-tests,-count=1,TestTestOnlyExports,./scripts)

# Every Go identifier, test function and file docs/ARCHITECTURE.md names
# in a code span exists (scripts/docnames_test.go, the same type-checked
# load as exports), so the map cannot point at code that moved or went.
# `go test ./...` runs the same test.
doc-names:
	$(call named-tests,-count=1,TestArchitectureNamesExist,./scripts)

# The allocation ceilings of the cache-hit path (a unary layer hit and
# a unary network hit through the handler, the cache key), of the tiling
# enumeration, of bounding a layer's tilings, of a warm Schedule and of
# BuildFused; the byte ceilings of a warm exhaustive layer search, of a
# warm fusion pass and of a cache entry loaded from a snapshot, with the
# two equalities that make the first two cheap:
# a search whose keep refuses losing runs returns what one copying every
# run returns, and a graph built into recycled storage reads as a fresh
# one. The ceilings are `//go:build !race` tests — the race detector
# allocates too — so `make check` skips them.
hit-allocs:
	$(call named-tests,,TestHitAllocs|TestCacheKeyAllocs|TestEnumerateAllocs|TestBoundAllocs|TestScheduleAllocs|TestBuildFusedAllocs|TestSearchLayerBytes|TestFusionPassBytes|TestCacheEntryBytes|TestKeepChangesNothing|TestBuildIntoRecycledStorage,./internal/serve ./internal/search ./internal/tile ./internal/sched ./internal/dfg)

# Faster inner-loop variant (skips the slower network-level tests).
test-short:
	$(GO) test -short ./...

# The multi-tenant admission suite on its own: weighted-fairness
# convergence, priority overtaking, preemption by cancellation and
# the preempt-requeue determinism property. All of these also run as
# part of `make check` via `go test -race ./...`.
fairness:
	$(call named-tests,-race -v,TestWeightedFairness|TestInteractiveOvertakesBatch|TestPreemption|TestGrantOrderIsFIFO|TestQuota,./internal/serve/admission/)
	$(call named-tests,-race -v,TestPreemptedRequeueIsBitIdentical,./internal/search/)
	$(call named-tests,-race -v,TestStreamPreemptionEndToEnd|TestPerTenant429State,./internal/serve/)

# Cluster end-to-end, on its own for visibility (all of it also runs
# under `make check`): three in-process flexerd nodes probing each
# other, with a scripted mid-run kill and rejoin — zero failed
# requests, failover counters incrementing, and the revived node
# resuming its ring segment — plus the snapshot warm-up, streamed
# forwarding and prober FSM suites, all under the race detector.
cluster-e2e:
	$(call named-tests,-race -v,TestClusterKillAndRejoinScenario|TestClusterSnapshotWarmup|TestClusterForwardStreaming|TestClusterHopGuard|TestReadyzLifecycle,./internal/serve/)
	$(call named-tests,-race -v,TestProberKillAndRejoin|TestRouteFailsOverAroundDownPeer|TestFSM,./internal/cluster/)

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark in the packages that have them —
# catches benchmarks that no longer compile or crash, without the cost
# of a real measurement run. CI uploads the output as an artifact.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem \
		./internal/search/... ./internal/sim/... ./internal/sched/... ./internal/spm/... ./internal/dfg/... ./internal/serve/... \
		./internal/tile/... ./internal/loop/... ./internal/verify/...

# The repository benchmark (BENCHMARK.json, bench/) is a nested module,
# so `go test ./...` never compiles it: run its own tests and its toy
# pass here, so that a product change which breaks it fails in CI and
# not in the benchmark pipeline.
repo-bench-smoke:
	cd bench && $(GO) test ./...
	bash bench/run.sh --smoke

# The committed record of the paper's evaluation, EXPERIMENTS.json: every
# experiment in the quick regime (scale 4, quick budget — what
# bench-guard re-runs) and in the paper's (scale 1, default budget), and
# Figure 8 at scale 2. One worker, so the effort counters repeat; about
# four minutes. Then EXPERIMENTS.md's table blocks are rendered from it.
# Running it twice leaves `git diff` empty.
FLEXERBENCH = $(GO) run ./cmd/flexerbench -workers 1

experiments:
	rm -f EXPERIMENTS.json
	$(FLEXERBENCH) -exp all -scale 4 -budget quick -json EXPERIMENTS.json > /dev/null
	$(FLEXERBENCH) -exp all -scale 1 -budget default -json EXPERIMENTS.json > /dev/null
	$(FLEXERBENCH) -exp fig8 -scale 2 -budget default -json EXPERIMENTS.json > /dev/null
	$(GO) test ./internal/experiments -run 'TestExperimentsMDInSync' -update-experiments-md

# The guard: re-run the quick regime — all 32 Figure 8 cells and every
# other table — and demand equality with the committed record, cell for
# cell. Everything recorded is simulated, so a changed schedule fails
# whether it got worse or better: regenerate the record (`make
# experiments`) in the change that means it. The fresh tables are left
# in experiments-new.json (CI uploads it).
bench-guard:
	rm -f experiments-new.json
	$(FLEXERBENCH) -exp all -scale 4 -budget quick -json experiments-new.json -guard EXPERIMENTS.json > /dev/null

# The same guard over the rest of the record: the paper's regime (scale
# 1, default budget) and Figure 8 at scale 2. About two and a half
# minutes, so CI leaves it out; a change meant to be result-identical
# runs it by hand. It writes no file.
paper-guard:
	$(FLEXERBENCH) -exp all -scale 1 -budget default -guard EXPERIMENTS.json > /dev/null
	$(FLEXERBENCH) -exp fig8 -scale 2 -budget default -guard EXPERIMENTS.json > /dev/null

# Short native-fuzzing run over the packages with fuzz targets: the
# schedule verifier (real schedules with one record corrupted, which it
# must judge without panicking), the scratchpad allocator (nested
# checkpoints included), the closed-form tiling floor (random strided,
# padded layers and factors against the grid walk and the built graph),
# and, on the scheduler's one random case (a graph, single-layer or
# fused, a machine and limits), its set formation (the prefix walk
# against the per-width reference enumerator, step by step), its
# look-ahead floors (never falling, never above what the run reaches,
# on the same draws plus a random fault plan) and its schedules (the
# nominal one, and a repaired and a degraded one under a random fault
# plan, passing the verifier, which must reject a moved gather and a
# dropped write-back). -fuzz must select one Fuzz* function: sched
# holds three and verify, dfg and spm one each.
# Each line bounds minimization to a second: the fuzzer minimizes every
# new interesting input for up to 60 s by default before it fuzzes on,
# so minimizing one allocator stream once held FuzzAllocator at one exec
# count from the 6th second of a 15 s run to its end.
# Skipped with a hint on toolchains without
# native fuzzing support, so the target never hard-fails on an old
# local Go (CI always has a current one).
FUZZTIME ?= 20s
FUZZ = $(GO) test -run='^$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s

fuzz-smoke:
	@if $(GO) help testflag 2>/dev/null | grep -q -- '-fuzz '; then \
		$(FUZZ) -fuzz='^FuzzDrawnSchedules$$' ./internal/sched && \
		$(FUZZ) -fuzz='^FuzzVerify$$' ./internal/verify && \
		$(FUZZ) -fuzz='^FuzzAllocator$$' ./internal/spm && \
		$(FUZZ) -fuzz='^FuzzFloor$$' ./internal/dfg && \
		$(FUZZ) -fuzz='^FuzzSetWalk$$' ./internal/sched && \
		$(FUZZ) -fuzz='^FuzzFloors$$' ./internal/sched; \
	else \
		echo "fuzz-smoke: this Go toolchain lacks native fuzzing, skipping"; \
	fi

# Static analysis beyond go vet. staticcheck and govulncheck are
# optional locally (CI installs them): each is skipped with a hint when
# not on PATH, so lint never requires network access.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not found, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not found, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Statement coverage across all internal packages, with the full
# per-function table.
cover:
	$(GO) test -coverprofile=cover.out -covermode=count -coverpkg=./internal/... ./...
	$(GO) tool cover -func=cover.out | tail -1

# Gate: combined statement coverage of internal/serve, internal/search,
# internal/dfg and internal/sched must be at least COVER_MIN percent;
# the path pattern matches every package under those trees, so
# internal/serve/admission is gated too. Run `make cover` first (CI
# runs both; this target depends on cover.out existing).
cover-check: cover
	@awk ' \
		NR > 1 && $$1 ~ /internal\/(serve|search|dfg|sched)\// { \
			stmts[$$1] = $$2; counts[$$1] += $$3; \
		} \
		END { \
			for (k in stmts) { total += stmts[k]; if (counts[k] > 0) covered += stmts[k] } \
			if (total == 0) { print "cover-check: no statements found"; exit 1 } \
			pct = 100 * covered / total; \
			printf "cover-check: serve+search+dfg+sched coverage %.1f%% (floor $(COVER_MIN)%%)\n", pct; \
			if (pct < $(COVER_MIN)) exit 1; \
		}' cover.out

run-flexerd:
	$(GO) run ./cmd/flexerd
