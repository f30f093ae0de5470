# Streamcast build/test entry points. Tier-1 verification (ROADMAP.md) is
# `make ci`: build + vet + gofmt gate + full test suite (the internal/lint
# analyzers run inside it) + the bench/ module's own vet and tests, plus the
# race pass over the engine, observability and experiment packages, short
# fuzz smokes of the fault-plan and scenario parsers and of the engine
# against its reference interpreter, and the chaos/scenario corpus replays.

GO ?= go

.PHONY: build test race vet fmt-check lint bench-module bench benchsmoke bench-json bench-gate fuzz chaos scenarios cover loc ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race pass. The slot engine is single-threaded; the in-process concurrency
# is the experiments' CPU budget (internal/experiments/parallel.go), under
# which cmd/experiments runs its tables at once and each table's rows run as
# independent engine runs on pooled Runners, and the JSONL trace writer's
# encoder goroutine, which formats and writes a trace beside the run that
# records it — hence slotsim, obs, the trace goldens, streamsim (whose
# `out trace=-` shares stdout with the text report), the experiments package
# and command, and the suites that drive them are in the list.
race:
	$(GO) test -race ./internal/slotsim/... ./internal/obs/... ./internal/trace/... ./cmd/streamsim/... ./internal/integration/... ./internal/faults/... ./internal/experiments/... ./cmd/experiments/...

vet:
	$(GO) vet ./...

# Formatting gate: every .go file in the tree (fixtures under testdata
# included) must be gofmt-clean; offenders are listed on failure.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { printf '%s\n' "$$out"; echo "fmt-check: run gofmt -w on the files above"; exit 1; }

# Project-specific static analysis alone: the internal/lint analyzers (see
# STATIC_ANALYSIS.md) over every package in the module, and their fixtures.
# `make test` runs the same tests, so ci does not list this target.
lint:
	$(GO) test -count=1 ./internal/lint

# The end-to-end benchmark harness is a module of its own (bench/go.mod), so
# `go vet ./...` and `go test ./...` at the root never reach it. It compiles
# against the spec, slotsim and obs APIs, so an API change that breaks it
# fails here rather than at the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Full benchmark sweep (one iteration each) — doubles as a reproduction
# record; see bench_test.go. internal/slotsim carries the white-box
# BenchmarkFinish (the epilogue alone, PERFORMANCE.md §7).
bench:
	$(GO) test -bench . -benchtime 1x -run XXX . ./internal/slotsim

# One-iteration benchmark smoke: proves every benchmark still compiles and
# runs, including the N=10^5 slot-engine scale cases. Part of ci; -short
# skips only the million-node hypercube, and numbers from a 1x pass are not
# meaningful.
benchsmoke:
	$(GO) test -bench . -benchtime 1x -benchmem -short -run XXX . ./internal/slotsim

# Measured benchmark snapshot as JSON (ns/op, B/op, allocs/op, custom
# metrics), written to BENCH_<date><suffix>.json via cmd/benchdiff: the whole
# sweep at BENCHTIME, then the rows `bench-gate` reruns, measured the way it
# measures them (a row the gate reruns takes the fastest repeat of the gate's
# own run, not a faster line of the sweep), so that any snapshot can serve as
# the gate's baseline. A snapshot is a committed record: the target
# refuses to overwrite one, so a second snapshot on the same date needs a
# suffix —
#   make bench-json SNAPSHOT_SUFFIX=-pr19
# Compare two snapshots with:
#   go run ./cmd/benchdiff -old BENCH_a.json -new BENCH_b.json -threshold 0.2
BENCHTIME ?= 2x
SNAPSHOT_SUFFIX ?=
bench-json:
	@out=BENCH_$$(date +%Y-%m-%d)$(SNAPSHOT_SUFFIX).json; \
	if [ -e "$$out" ]; then echo "bench-json: $$out exists; set SNAPSHOT_SUFFIX (e.g. -pr19) to write beside it"; exit 1; fi; \
	{ $(GO) test -bench . -benchtime $(BENCHTIME) -benchmem -run XXX . ./internal/slotsim && $(GATE_BENCH); } \
		| $(GO) run ./cmd/benchdiff -write "$$out"

# Short fuzz smoke over the fault-plan parser (FAULTS.md), the scenario
# parser/formatter round trip (SCENARIOS.md), the JSONL trace reader and its
# writer round trip (OBSERVABILITY.md), and the engine against its reference
# interpreter on generated runs (internal/integration). CI keeps these brief;
# crank -fuzztime for a real session.
fuzz:
	$(GO) test -fuzz '^FuzzFaultPlan$$' -fuzztime 5s -run '^$$' ./internal/faults
	$(GO) test -fuzz '^FuzzReadEvents$$' -fuzztime 5s -run '^$$' ./internal/obs
	$(GO) test -fuzz '^FuzzScenario$$' -fuzztime 5s -run '^$$' ./internal/spec
	$(GO) test -fuzz '^FuzzRandRegScenario$$' -fuzztime 5s -run '^$$' ./internal/spec
	$(GO) test -fuzz '^FuzzEngineDifferential$$' -fuzztime 5s -run '^$$' ./internal/integration

# Replay the pinned fault corpus (internal/faults/testdata/corpus) and fail
# on any fingerprint drift. Refresh intentionally with:
#   go test ./internal/faults -run TestChaosCorpus -update
chaos:
	$(GO) test ./internal/faults -run 'TestChaosCorpus|TestCorpusPlansRoundTrip' -count=1 -v

# Replay the pinned scenario corpus (internal/spec/testdata/scenarios):
# every corpus scenario must parse, stay canonical, build through the
# registry, and reproduce its pinned result fingerprint; no construction
# site may bypass the registry. Refresh fingerprints intentionally with:
#   go test ./internal/spec -run TestScenarioCorpus -update
scenarios:
	$(GO) test ./internal/spec -run 'TestScenarioCorpus|TestCorpusScenariosCanonical|TestNoStrayConstruction' -count=1 -v

# Aggregate statement-coverage gate: one profile over every package,
# totalled with `go tool cover -func`. The recorded baseline is 84.4%
# (2026-10, after the lint audit); COVER_MIN sits a few points below it so
# the gate catches a PR landing a large untested surface without tripping on
# routine drift. The
# profile lives in a temp file so a gate run never leaves artifacts in the
# tree; for per-function detail, write your own profile:
#   go test -coverprofile=/tmp/cover.out ./... && go tool cover -func=/tmp/cover.out
COVER_MIN ?= 81.0
cover:
	@prof=$$(mktemp); \
	$(GO) test -coverprofile=$$prof ./... || { rm -f $$prof; exit 1; }; \
	total=$$($(GO) tool cover -func=$$prof | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	rm -f $$prof; \
	echo "total coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit !(t+0 >= min+0) }' \
		|| { echo "cover: total $$total% is below the $(COVER_MIN)% gate"; exit 1; }

# Benchmark regression gate against the committed baseline snapshot.
# GATE_BENCH reruns the multitree slot-engine rows at N=10^4 (the headline
# scale case; the pattern takes the N=10^5 row with it), five times 30
# iterations each — benchdiff keeps a row's fastest repeat — and holds them to
# ns/op, B/op and allocs/op; and the rows that hold memory in place —
# BenchmarkFinish, the wide-window N=31000, 600-packet engine row on a warmed
# Runner, the same row on a cold Runner per iteration, whose B/op counts the
# arrival ledger itself, BenchmarkBuildReport on the churn-faulted shape,
# BenchmarkFaultedChurnRun (that shape's build, faulted run and report),
# BenchmarkCheckStatic's two paper constructions, the N = 10^4 row group
# of the randreg table (BenchmarkRandRegFrontierRow/N10000), and the stateful
# generators' schedules alone (BenchmarkRandRegSchedule's pull and push rows,
# BenchmarkGossipSchedule) —
# held to B/op and allocs/op only (-memory-only): their ns/op reads 0.4–1.5 s
# for one binary on a shared host, while what they allocate repeats exactly,
# and a window matrix back on the heap, or an int32 cell per node per packet
# back in the ledger, is 74 MB more (a compiled schedule snapshot back in the
# cold row, ≈ 90 MB; a nodes × slots occupancy matrix back in the report,
# ≈ 19 MB; an int32 arrival matrix of the verifier's own back in check.Static,
# ≈ 26 MB on the multi-tree row; a boxed heap back in the latin plan, ≈ 255 k
# more allocs on the randreg row; a digraph drawn per mode rather than per
# seed, 57 → 72 MB there, sits on the bound's edge; a per-run log of every
# generated slot back in the generators, ≈ 0.2–0.3 MB → 22–32 MB on the
# schedule rows and ≈ 24 → 58 MB on the randreg row). Memory
# past 25% fails; time past 50%, because the fastest of five still reads
# 2.5–3.6 ms for the same binary on a two-core host shared with other
# containers (the baseline before this one said 6.23 ms for a row that measures
# 3, so 2.9x passed). Rows present in the baseline but filtered out of the fresh
# run are reported as missing, never failed — that is what lets this gate run a
# narrow -bench filter. Refresh the baseline with `make bench-json` and point
# BENCH_BASELINE at the new snapshot.
BENCH_BASELINE ?= BENCH_2026-10-19-pr52.json
GATE_BENCH = $(GO) test -bench 'SlotEngineScale/multitree-N10000/sequential' -benchtime 30x -count 5 -benchmem -run XXX . && \
	$(GO) test -bench 'SlotEngineScale/multitree-N31000-P600/sequential' -benchtime 5x -benchmem -run XXX . && \
	$(GO) test -bench 'SlotEngineCold/multitree-N31000-P600' -benchtime 5x -benchmem -run XXX . && \
	$(GO) test -bench '^BenchmarkFinish$$' -benchtime 5x -benchmem -run XXX ./internal/slotsim && \
	$(GO) test -bench '^BenchmarkBuildReport$$' -benchtime 5x -benchmem -run XXX . && \
	$(GO) test -bench '^BenchmarkFaultedChurnRun$$' -benchtime 5x -benchmem -run XXX . && \
	$(GO) test -bench '^BenchmarkCheckStatic/' -benchtime 5x -benchmem -run XXX . && \
	$(GO) test -bench '^BenchmarkRandRegFrontierRow/N10000$$' -benchtime 5x -benchmem -run XXX . && \
	$(GO) test -bench '^Benchmark(RandRegSchedule|GossipSchedule)$$' -benchtime 5x -benchmem -run XXX .
bench-gate:
	@snap=$$(mktemp); \
	{ $(GATE_BENCH); } | $(GO) run ./cmd/benchdiff -write $$snap || { rm -f $$snap; exit 1; }; \
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) -new $$snap -threshold 0.25 -time-threshold 0.5 -memory-only 'N31000-P600|^BenchmarkFinish$$|^BenchmarkBuildReport$$|^BenchmarkFaultedChurnRun$$|^BenchmarkCheckStatic/|^BenchmarkRandRegFrontierRow/N10000$$|^BenchmarkRandRegSchedule/|^BenchmarkGossipSchedule$$'; \
	status=$$?; rm -f $$snap; exit $$status

# The size of the program: non-test, non-testdata Go lines under internal/
# and cmd/. This is the number ROADMAP.md and CHANGES.md quote when a PR
# claims "line count down". The second line counts the _test.go lines there,
# so code moved from the program into its tests shows.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
	@find internal cmd -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

ci: build vet fmt-check test bench-module race fuzz chaos scenarios cover benchsmoke bench-gate

clean:
	$(GO) clean ./...
