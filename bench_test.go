package streamcast

// One benchmark per table/figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus micro-benchmarks of the substrates.
// Each table/figure benchmark regenerates the corresponding experiment and
// reports its headline quantity as a custom metric, so `go test -bench`
// output doubles as a compact reproduction record.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/experiments"
	"streamcast/internal/faults"
	"streamcast/internal/gossip"
	"streamcast/internal/graph"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// benchScheme resolves a scenario through the scheme registry; benchmarks
// that need scheme-specific accessors type-assert the result.
func benchScheme(b testing.TB, sc *spec.Scenario) core.Scheme {
	b.Helper()
	run, err := spec.Build(sc)
	if err != nil {
		b.Fatal(err)
	}
	return run.Scheme
}

// BenchmarkFig3Construction measures interior-disjoint tree construction
// (the Figure 3 artifact) at several sizes.
func BenchmarkFig3Construction(b *testing.B) {
	for _, c := range []multitree.Construction{multitree.Structured, multitree.Greedy} {
		for _, n := range []int{15, 255, 2047} {
			b.Run(fmt.Sprintf("%s/N=%d", c, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// This benchmark measures the raw constructor, so it
					// deliberately bypasses the registry.
					//lint:ignore construction constructor throughput benchmark
					if _, err := multitree.New(n, 3, c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4WorstCaseDelay regenerates Figure 4 (worst-case startup
// delay vs N for degrees 2..5) and reports the N=2000 values.
func BenchmarkFig4WorstCaseDelay(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Figure4(2000, 200, []int{2, 3, 4, 5}, multitree.Greedy)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	for i, d := range []int{2, 3, 4, 5} {
		var v float64
		fmt.Sscanf(last[i+1], "%f", &v)
		b.ReportMetric(v, fmt.Sprintf("delay_d%d_N2000", d))
	}
}

// BenchmarkTable1Comparison regenerates the Table 1 comparison at N=255.
func BenchmarkTable1Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1([]int{255}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5HypercubeSteadyState runs the single-cube schedule that
// Figures 5/6 trace (N=7) plus a larger cube, reporting worst buffer.
func BenchmarkFig5HypercubeSteadyState(b *testing.B) {
	for _, k := range []int{3, 7, 10} {
		n := 1<<k - 1
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s := benchScheme(b, spec.HypercubeScenario(n, 1))
			var res *slotsim.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = slotsim.Run(s, slotsim.Options{
					Slots:   core.Slot(4*k + 8),
					Packets: core.Packet(2 * k),
					Mode:    core.Live,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.WorstBuffer()), "worst_buffer_pkts")
			b.ReportMetric(float64(res.WorstStartDelay()), "worst_delay_slots")
		})
	}
}

// BenchmarkClusterDelay regenerates the Figure 1 / Theorem 1 experiment.
func BenchmarkClusterDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClusterExperiment(9, 3, 4, 30, []int{10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayBounds regenerates the Theorem 2/3 comparison.
func BenchmarkDelayBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DelayBounds([]int{100, 500}, []int{2, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHypercubeAvgDelay regenerates the Theorem 4 experiment and
// reports the N=1000 average against the 2·log2 N bound.
func BenchmarkHypercubeAvgDelay(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.HypercubeAvgDelay([]int{1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	var avg, bound float64
	fmt.Sscanf(tab.Rows[0][2], "%f", &avg)
	fmt.Sscanf(tab.Rows[0][3], "%f", &bound)
	b.ReportMetric(avg, "avg_delay_slots")
	b.ReportMetric(bound, "thm4_bound_slots")
}

// BenchmarkDegreeOptimization regenerates the Section 2.3 degree study.
func BenchmarkDegreeOptimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DegreeOptimization([]int{100, 1000, 10000}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurn regenerates the appendix dynamics experiment and reports
// the per-op swap averages of both variants.
func BenchmarkChurn(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.ChurnSurvival(50, 3, 100, []float64{0.5}, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	var eager, lazy float64
	fmt.Sscanf(tab.Rows[0][5], "%f", &eager)
	fmt.Sscanf(tab.Rows[1][5], "%f", &lazy)
	b.ReportMetric(eager, "eager_swaps_per_op")
	b.ReportMetric(lazy, "lazy_swaps_per_op")
}

// BenchmarkDelayDistribution regenerates the per-node delay-distribution
// extension.
func BenchmarkDelayDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DelayDistribution([]int{500}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnComparison regenerates the multi-tree vs hypercube churn
// cost comparison.
func BenchmarkChurnComparison(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.ChurnComparison(60, 3, 600, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	var mt, hc float64
	fmt.Sscanf(tab.Rows[0][2], "%f", &mt)
	fmt.Sscanf(tab.Rows[1][2], "%f", &hc)
	b.ReportMetric(mt, "multitree_moves_per_op")
	b.ReportMetric(hc, "hypercube_moves_per_op")
}

// BenchmarkBaselines regenerates the Section 1 strawman comparison.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Baselines([]int{200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveModes regenerates the stream-mode ablation.
func BenchmarkLiveModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LiveModes([]int{100}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisjointTreeSolver measures the exact NP-completeness solver on
// reduction graphs (E13).
func BenchmarkDisjointTreeSolver(b *testing.B) {
	in := &graph.E4Instance{
		NumElements: 6,
		Sets:        [][4]int{{0, 1, 2, 3}, {2, 3, 4, 5}, {0, 2, 4, 5}},
	}
	g, root, err := in.Reduce()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, ok := g.TwoInteriorDisjointTrees(root); !ok {
			b.Fatal("expected trees")
		}
	}
}

// BenchmarkEngineSequentialVsParallel measures simulator throughput on a
// large multi-tree (substrate micro-benchmark). The parallel rows went with
// the sharded engine; the benchmark and row names stay so snapshots remain
// comparable with BENCH_2026-08-07-pr9.json.
func BenchmarkEngineSequentialVsParallel(b *testing.B) {
	s := benchScheme(b, spec.MultiTreeScenario(2000, 3, multitree.Greedy, core.PreRecorded)).(*multitree.Scheme)
	opt := slotsim.Options{
		Slots:   core.Slot(s.Tree.Height()*3 + 30),
		Packets: 9,
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := slotsim.Run(s, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// aperiodic hides a scheme's period declaration (core.Periodic), so that a
// direct run executes every slot up to the window's end instead of stopping
// at a period certificate: the engine benchmarks time and size the slot loop.
type aperiodic struct{ core.Scheme }

// BenchmarkSlotEngineScale measures raw slot-engine throughput at the scales
// the paper's asymptotic bounds address: multitree at N=10^4 and N=10^5, and
// a full 2^20−1 hypercube (the "million-node" case; skipped under -short, so
// `make benchsmoke` stays quick). Each case runs on a warmed Runner — the
// scheme's slot buffer and the scratch arenas are hot, so the numbers isolate
// the per-slot path. The node_slots/s metric (nodes × slots simulated per
// second) is what the PERFORMANCE.md trajectory table tracks. Those rows use
// a window of a few packets, so the epilogue (engine.finish) is invisible in
// them; the multitree-N31000-P600 row is the dense benchmark workloads' shape
// — 600 window packets — where summarising the window (internal/slotsim
// BenchmarkFinish times it alone) is ≈ 0.3 % of the run in the committed
// snapshots — 0.62 of 181 ms on a quiet two-core host, 1.05 of 339 ms on a
// busy one. The rest is the slot loop, chiefly deliver and validateSends. No cell being asked for, the run allocates 0.76 MB whatever
// the window. Rows keep the "/sequential" suffix so `make bench-gate` still
// matches the committed baseline snapshot, which holds this row to its B/op
// and allocs/op. Every "/sequential" row hides its scheme's period, so it
// executes the slot loop to the window's end; the one
// multitree-N31000-P600/certified row runs the same shape as a bare run does,
// stopping at its period certificate near slot 35.
func BenchmarkSlotEngineScale(b *testing.B) {
	type scaleCase struct {
		name   string
		scheme core.Scheme
		opt    slotsim.Options
		nodes  int
	}
	var cases []scaleCase
	for _, c := range []struct {
		n       int
		packets core.Packet
	}{{10000, 8}, {100000, 8}, {31000, 600}} {
		s := benchScheme(b, spec.MultiTreeScenario(c.n, 4, multitree.Greedy, core.PreRecorded)).(*multitree.Scheme)
		name, slots := fmt.Sprintf("multitree-N%d", c.n), s.Tree.Height()*4+24
		if c.packets > 8 { // the wide-window row: the horizon has to cover the window
			name, slots = fmt.Sprintf("%s-P%d", name, c.packets), slots+int(c.packets)
		}
		opt := slotsim.Options{Slots: core.Slot(slots), Packets: c.packets}
		cases = append(cases, scaleCase{name + "/sequential", aperiodic{s}, opt, c.n + 1})
		if c.packets > 8 {
			cases = append(cases, scaleCase{name + "/certified", s, opt, c.n + 1})
		}
	}
	if !testing.Short() {
		const k = 20
		s := benchScheme(b, spec.HypercubeScenario(1<<k-1, 1))
		opt := slotsim.Options{
			Slots:   core.Slot(4*k + 8),
			Packets: core.Packet(2 * k),
			Mode:    core.Live,
		}
		cases = append(cases, scaleCase{fmt.Sprintf("hypercube-N%d/sequential", 1<<k-1), aperiodic{s}, opt, 1 << k})
	}
	for _, c := range cases {
		work := float64(c.nodes) * float64(c.opt.Slots)
		b.Run(c.name, func(b *testing.B) {
			r := slotsim.NewRunner()
			res, err := r.Run(c.scheme, c.opt) // warm scratch and slot buffers
			if err != nil {
				b.Fatal(err)
			}
			if res.CertPeriod > 0 {
				work = float64(c.nodes) * float64(res.CertSlot+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(c.scheme, c.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(work*float64(b.N)/b.Elapsed().Seconds(), "node_slots/s")
		})
	}
}

// BenchmarkSlotEngineCold is the wide-window scale row on a fresh Runner per
// iteration, so its B/op counts everything a run sizes for itself — the
// arrival ledger included — where SlotEngineScale's warmed Runner hides it.
// `make bench-gate` holds it to its bytes: a cell-free run that wrote an int32
// cell per node per window packet would add 4·31 001·600 B ≈ 74 MB to it. The
// scheme's period is hidden, so the run executes every slot of the window.
func BenchmarkSlotEngineCold(b *testing.B) {
	s := benchScheme(b, spec.MultiTreeScenario(31000, 4, multitree.Greedy, core.PreRecorded)).(*multitree.Scheme)
	opt := slotsim.Options{Slots: core.Slot(s.Tree.Height()*4 + 24 + 600), Packets: 600}
	b.Run("multitree-N31000-P600", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := slotsim.NewRunner().Run(aperiodic{s}, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObserverOverhead measures the cost of the observability layer
// on the sequential engine: no observer (a bare run, which ends once the
// window is complete, while an observed one runs every slot of the horizon
// through the same step and hands each slot's view to the sink), the Metrics
// collector, the JSONL trace writer over io.Discard, full event recording,
// and the CLI's pairing of Metrics with a JSONL trace written to a file,
// which pays the write(2) calls the benchmark's `observed` workload pays.
// Every row reports allocations, so `make bench-json` snapshots allocs/op for
// the sinks.
func BenchmarkObserverOverhead(b *testing.B) {
	s := benchScheme(b, spec.MultiTreeScenario(2000, 3, multitree.Greedy, core.PreRecorded)).(*multitree.Scheme)
	base := slotsim.Options{
		Slots:   core.Slot(s.Tree.Height()*3 + 30),
		Packets: 9,
	}
	trace, err := os.Create(filepath.Join(b.TempDir(), "events.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer trace.Close()
	for _, c := range []struct {
		name string
		sink func() (obs.Observer, *obs.JSONLWriter)
	}{
		{"none", func() (obs.Observer, *obs.JSONLWriter) { return nil, nil }},
		{"metrics", func() (obs.Observer, *obs.JSONLWriter) { return obs.NewMetrics(), nil }},
		{"jsonl", func() (obs.Observer, *obs.JSONLWriter) {
			j := obs.NewJSONLWriter(io.Discard)
			return j, j
		}},
		{"recorder", func() (obs.Observer, *obs.JSONLWriter) { return &obs.Recorder{}, nil }},
		{"metrics+jsonl", func() (obs.Observer, *obs.JSONLWriter) {
			if _, err := trace.Seek(0, io.SeekStart); err != nil {
				b.Fatal(err)
			}
			j := obs.NewJSONLWriter(trace)
			return obs.Combine(obs.NewMetrics(), j), j
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := base
				var j *obs.JSONLWriter
				opt.Observer, j = c.sink()
				if _, err := slotsim.Run(s, opt); err != nil {
					b.Fatal(err)
				}
				if j != nil {
					if err := j.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkBuildReport measures assembling the run report of the
// `churn-faulted` benchmark shape — multitree d=3 N=10000, 200 packets,
// Poisson live churn over 2% loss — from its Result, Metrics and arrival
// record. The run itself is set up once, outside the timer. `make bench-gate`
// holds the row to its bytes: the report's buffer series are folded from the
// run's Options.Arrivals record a block of ids at a time, with O(slots)
// scratch per block, and a nodes × slots occupancy matrix back in the path is
// ≈ 19 MB more per op.
func BenchmarkBuildReport(b *testing.B) {
	run, err := spec.Build(faultedChurnScenario(b, b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	met := obs.NewMetrics()
	opt := run.Opt
	opt.Observer = met
	res, err := slotsim.Run(run.Scheme, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reportSink = slotsim.BuildReport(run.Scheme, opt, res, met, 0)
	}
}

// reportSink keeps the report benchmarks' results live.
var reportSink *obs.RunReport

// faultedChurnScenario is the `churn-faulted` benchmark shape: multitree d=3
// N=10000, 200 packets, Poisson live churn (lazy repair) over a 2% loss plan
// written to dir.
func faultedChurnScenario(b *testing.B, dir string) *spec.Scenario {
	b.Helper()
	plan := filepath.Join(dir, "loss.plan")
	if err := os.WriteFile(plan, []byte("seed 7\nloss from=any to=any rate=0.02 slots=0..\n"), 0o644); err != nil {
		b.Fatal(err)
	}
	sc, err := spec.Parse("scheme multitree\nparam d=3 n=10000\npackets 200\nfaults file=" + plan +
		"\nchurn kind=poisson rate=1 seed=11 policy=lazy slots=20..\n")
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkFaultedChurnRun is the `churn-faulted` workload in process: per
// iteration the registry build (a live-churn run is single-shot), the run with
// Metrics attached on one held Runner, and the report with its churn section.
// The injector's verdicts and the per-slot Metrics hook sit on this path.
// `make bench-gate` holds the row to its bytes and allocations: a Metrics
// that logs each delivery again is ≈ 17 MB more per op, a run sized to its
// join budget rather than to its horizon's joins ≈ 25 MB more, and an arrival
// record of int32 cells rather than the one byte its 238-slot horizon needs
// ≈ 6 MB more.
func BenchmarkFaultedChurnRun(b *testing.B) {
	sc := faultedChurnScenario(b, b.TempDir())
	r := slotsim.NewRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run, err := spec.Build(sc)
		if err != nil {
			b.Fatal(err)
		}
		met := obs.NewMetrics()
		opt := run.Opt
		opt.Observer = met
		res, err := r.Run(run.Scheme, opt)
		if err != nil {
			b.Fatal(err)
		}
		reportSink = slotsim.BuildReport(run.Scheme, opt, res, met, 0)
		reportSink.Churn = run.ChurnReport(res)
	}
}

// BenchmarkInjectorDropTx measures the loss verdict alone: a fixed stream of
// 2 000 000 transmissions (200 slots × 10 000 links) against one 2% loss
// rule, reported per verdict.
func BenchmarkInjectorDropTx(b *testing.B) {
	plan, err := faults.ParsePlan("seed 7\nloss from=any to=any rate=0.02 slots=0..\n")
	if err != nil {
		b.Fatal(err)
	}
	in, err := faults.NewInjector(plan)
	if err != nil {
		b.Fatal(err)
	}
	const slots, links = 200, 10000
	drops := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drops = 0
		for t := core.Slot(0); t < slots; t++ {
			for k := 0; k < links; k++ {
				tx := core.Transmission{From: core.NodeID(k), To: core.NodeID((3*k + 1) % links), Packet: core.Packet(t)}
				if in.DropTx(tx, t) {
					drops++
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots*links), "ns/verdict")
	b.ReportMetric(float64(drops), "drops")
}

// BenchmarkScheduleGeneration measures raw schedule-emission throughput.
func BenchmarkScheduleGeneration(b *testing.B) {
	s := benchScheme(b, spec.MultiTreeScenario(1000, 3, multitree.Greedy, core.PreRecorded))
	b.Run("multitree-N1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Transmissions(core.Slot(i % 64))
		}
	})
	// The dense shape's degree and size, and an unchurned live scheme: both
	// time steady-state slots, past every first receive slot.
	big := benchScheme(b, spec.MultiTreeScenario(31000, 4, multitree.Greedy, core.PreRecorded))
	b.Run("multitree-N31000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			big.Transmissions(core.Slot(64 + i%64))
		}
	})
	live, err := multitree.NewLiveScheme(10000, 3, false, core.PreRecorded)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("multitree-live-N10000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			live.Transmissions(core.Slot(64 + i%64))
		}
	})
	for _, n := range []int{1023, 32767} {
		h := benchScheme(b, spec.HypercubeScenario(n, 1))
		b.Run(fmt.Sprintf("hypercube-N%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.Transmissions(core.Slot(i%64) + 16)
			}
		})
	}
}

// checkBenchScenarios are the two paper constructions at the sizes the
// end-to-end benchmark's cube-check and dense workloads run them at.
var checkBenchScenarios = []struct {
	name string
	sc   *spec.Scenario
}{
	{"hypercube-N32767", spec.HypercubeScenario(32767, 1)},
	{"multitree-N31000", spec.MultiTreeScenario(31000, 4, multitree.Structured, core.PreRecorded)},
}

// BenchmarkCheckStatic measures the static verifier alone — an engine run
// over the whole horizon with the tree and mesh audit as its observer, the
// degree audit and the bound cross-check — on a scheme built once
// (PERFORMANCE.md §9). make bench-gate holds its B/op and allocs/op.
func BenchmarkCheckStatic(b *testing.B) {
	for _, c := range checkBenchScenarios {
		run, err := spec.Build(c.sc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := check.Static(run.Scheme, *run.CheckOpt)
				if err != nil || !rep.OK() {
					b.Fatalf("check failed: %v %v", err, rep)
				}
			}
		})
	}
}

// BenchmarkNeighbors measures building the protocol-neighbour map, which
// bench/pipeline.go's text report still asks for (the check's mesh audit
// reads the scheme's walk instead, core.EachNeighbors), and, in each row's
// `/max` sub-row, core.MaxNeighbors, which the CLI's `max neighbors:` line
// reads without building it.
func BenchmarkNeighbors(b *testing.B) {
	for _, c := range checkBenchScenarios {
		s := benchScheme(b, c.sc)
		want := 0
		for _, l := range s.Neighbors() {
			want = max(want, len(l))
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if nb := s.Neighbors(); len(nb) != s.NumReceivers() {
					b.Fatalf("%d lists for %d receivers", len(nb), s.NumReceivers())
				}
			}
		})
		b.Run(c.name+"/max", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := core.MaxNeighbors(s); got != want {
					b.Fatalf("core.MaxNeighbors = %d, the map's longest list has %d", got, want)
				}
			}
		})
	}
}

// TestMaxNeighborsAllocs pins core.MaxNeighbors on the two paper
// constructions at benchmark size to at most one allocation (multi-tree's
// 2d-entry buffer; the cube's lives on the stack): the text report's
// `max neighbors:` line builds no mesh map.
func TestMaxNeighborsAllocs(t *testing.T) {
	for _, c := range checkBenchScenarios {
		s := benchScheme(t, c.sc)
		if got := testing.AllocsPerRun(3, func() { core.MaxNeighbors(s) }); got > 1 {
			t.Errorf("%s: core.MaxNeighbors makes %v allocations, want at most 1", c.name, got)
		}
	}
}

// benchSchedule times schedule generation alone — a fresh scheme per
// iteration (the gossip generators are stateful), every slot of the
// scenario's horizon read once through Transmissions, no engine.
func benchSchedule(b *testing.B, sc *spec.Scenario) {
	b.ReportAllocs()
	txs := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run, err := spec.Build(sc)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for t := core.Slot(0); t < run.Opt.Slots; t++ {
			txs += len(run.Scheme.Transmissions(t))
		}
	}
	b.ReportMetric(float64(txs)/float64(b.N), "txs/op")
}

// BenchmarkGossipSchedule generates the schedule of the costliest
// `unstructured` row: N = 1000, d = 3, degree 5, pull-oldest, 4100 slots
// (PERFORMANCE.md §8).
func BenchmarkGossipSchedule(b *testing.B) {
	sc := spec.GossipScenario(1000, 3, 5, gossip.PullOldest, 42)
	sc.Packets = 9
	sc.Slots = 4100
	benchSchedule(b, sc)
}

// BenchmarkRandRegSchedule generates one N = 10^4 trial of the `randreg`
// table's pull and push rows over the registry's default horizon.
func BenchmarkRandRegSchedule(b *testing.B) {
	for _, mode := range []string{"pull", "push"} {
		b.Run(mode+"-N10000", func(b *testing.B) {
			benchSchedule(b, spec.RandRegScenario(10000, 3, mode, 1))
		})
	}
}

// BenchmarkRandRegFrontierRow regenerates the N = 10^4 row group of the
// `randreg` table — the two deterministic schemes plus three seeded trials of
// each randreg mode, eleven runs spread over the row workers — which is most
// of a `sweep` iteration (PERFORMANCE.md §10).
func BenchmarkRandRegFrontierRow(b *testing.B) {
	b.Run("N10000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RandRegFrontier([]int{10000}, 3, 3, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckedCubeRun is the `cube-check` workload in process: registry
// build, static check and run of the N = 32767 hypercube. The check is an
// observed engine run over its own 23-slot horizon (check.HypercubeOptions:
// delay 15 + 4 packets + 4), not the run's 264; the bare run after it ends
// when its window is complete (slot 19).
func BenchmarkCheckedCubeRun(b *testing.B) {
	b.Run("N32767", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run, err := spec.Build(spec.HypercubeScenario(32767, 1))
			if err != nil {
				b.Fatal(err)
			}
			if rep, err := run.Preflight(); err != nil || !rep.OK() {
				b.Fatalf("check failed: %v %v", err, rep)
			}
			res, err := run.Execute(nil)
			if err != nil {
				b.Fatal(err)
			}
			if res.SlotsUsed != 19 {
				b.Fatalf("slots used %d, want 19", res.SlotsUsed)
			}
		}
	})
}

// BenchmarkStructuredVsUnstructured regenerates the gossip comparison.
func BenchmarkStructuredVsUnstructured(b *testing.B) {
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.StructuredVsUnstructured([]int{200}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	var mt, g float64
	fmt.Sscanf(tab.Rows[0][4], "%f", &mt)
	fmt.Sscanf(tab.Rows[1][4], "%f", &g)
	b.ReportMetric(mt, "multitree_max_delay")
	b.ReportMetric(g, "gossip_max_delay")
}

// BenchmarkMDC regenerates the MDC graceful-degradation experiment.
func BenchmarkMDC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MDCGracefulDegradation(60, 4, []float64{0.02}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnImpact regenerates the churn playback-impact experiment.
func BenchmarkChurnImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ChurnImpact(40, 3, 100, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryBuild measures scenario resolution through the scheme
// registry — parameter parsing, validation, construction, and option
// derivation — for every registered family.
func BenchmarkRegistryBuild(b *testing.B) {
	for _, f := range spec.Families() {
		b.Run(f.Name, func(b *testing.B) {
			sc := &spec.Scenario{Scheme: f.Name, Params: map[string]string{"n": "40"}}
			for i := 0; i < b.N; i++ {
				if _, err := spec.Build(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicChurnOps measures join/leave throughput through
// LiveScheme.Apply, the firing-list patching included.
func BenchmarkDynamicChurnOps(b *testing.B) {
	ls, err := multitree.NewLiveScheme(256, 3, false, core.PreRecorded)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("b-%d", i)
		if _, err := ls.Apply(0, core.TopologyOp{Name: name}); err != nil {
			b.Fatal(err)
		}
		if _, err := ls.Apply(0, core.TopologyOp{Leave: true, Name: name}); err != nil {
			b.Fatal(err)
		}
	}
}
