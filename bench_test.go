package streamcast

// One benchmark per table/figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus micro-benchmarks of the substrates.
// Each table/figure benchmark regenerates the corresponding experiment and
// reports its headline quantity as a custom metric, so `go test -bench`
// output doubles as a compact reproduction record.

import (
	"fmt"
	"io"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/experiments"
	"streamcast/internal/gossip"
	"streamcast/internal/graph"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// benchScheme resolves a scenario through the scheme registry; benchmarks
// that need scheme-specific accessors type-assert the result.
func benchScheme(b *testing.B, sc *spec.Scenario) core.Scheme {
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

// BenchmarkSlotEngineScale measures raw slot-engine throughput at the scales
// the paper's asymptotic bounds address: multitree at N=10^4 and N=10^5, and
// a full 2^20−1 hypercube (the "million-node" case; skipped under -short, so
// `make benchsmoke` stays quick). Each case runs on a warmed Runner — the
// compiled-schedule cache and scratch arenas are hot, so the numbers isolate
// the per-slot path. The node_slots/s metric (nodes × slots simulated per
// second) is what the PERFORMANCE.md trajectory table tracks. Those rows use
// a window of a few packets, so the epilogue (engine.finish) is invisible in
// them; the multitree-N31000-P600 row is the dense benchmark workloads' shape
// — 600 window packets — where summarising the window is ≈ 85 of the run's
// ≈ 440 ms (internal/slotsim BenchmarkFinish times it alone) and, no cell
// being asked for, allocates 0.76 MB whatever the window. Rows keep the
// "/sequential" suffix so `make bench-gate` still matches the committed
// baseline snapshot, which holds this row to its B/op and allocs/op.
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
		cases = append(cases, scaleCase{name, s, opt, c.n + 1})
	}
	if !testing.Short() {
		const k = 20
		s := benchScheme(b, spec.HypercubeScenario(1<<k-1, 1))
		opt := slotsim.Options{
			Slots:   core.Slot(4*k + 8),
			Packets: core.Packet(2 * k),
			Mode:    core.Live,
		}
		cases = append(cases, scaleCase{fmt.Sprintf("hypercube-N%d", 1<<k-1), s, opt, 1 << k})
	}
	for _, c := range cases {
		work := float64(c.nodes) * float64(c.opt.Slots)
		b.Run(c.name+"/sequential", func(b *testing.B) {
			r := slotsim.NewRunner()
			if _, err := r.Run(c.scheme, c.opt); err != nil { // warm scratch + compiled cache
				b.Fatal(err)
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

// BenchmarkObserverOverhead measures the cost of the observability layer
// on the sequential engine: no observer (the fast path every pre-existing
// caller stays on), the Metrics collector, the JSONL trace writer over
// io.Discard, and full event recording. Every row reports allocations, so
// `make bench-json` snapshots allocs/op for the sinks.
func BenchmarkObserverOverhead(b *testing.B) {
	s := benchScheme(b, spec.MultiTreeScenario(2000, 3, multitree.Greedy, core.PreRecorded)).(*multitree.Scheme)
	base := slotsim.Options{
		Slots:   core.Slot(s.Tree.Height()*3 + 30),
		Packets: 9,
	}
	for _, c := range []struct {
		name string
		sink func() obs.Observer
	}{
		{"none", func() obs.Observer { return nil }},
		{"metrics", func() obs.Observer { return obs.NewMetrics() }},
		{"jsonl", func() obs.Observer { return obs.NewJSONLWriter(io.Discard) }},
		{"recorder", func() obs.Observer { return &obs.Recorder{} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := base
				opt.Observer = c.sink()
				if _, err := slotsim.Run(s, opt); err != nil {
					b.Fatal(err)
				}
				if j, ok := opt.Observer.(*obs.JSONLWriter); ok {
					if err := j.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkScheduleGeneration measures raw schedule-emission throughput.
func BenchmarkScheduleGeneration(b *testing.B) {
	s := benchScheme(b, spec.MultiTreeScenario(1000, 3, multitree.Greedy, core.PreRecorded))
	b.Run("multitree-N1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Transmissions(core.Slot(i % 64))
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

// BenchmarkCheckStatic measures the static verifier alone — schedule
// interpretation, tree and mesh audit, bound cross-check — on a scheme built
// once (PERFORMANCE.md §9).
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

// BenchmarkNeighbors measures building the protocol-neighbour mesh, which
// every text report and every mesh audit asks the scheme for.
func BenchmarkNeighbors(b *testing.B) {
	for _, c := range checkBenchScenarios {
		s := benchScheme(b, c.sc)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if nb := s.Neighbors(); len(nb) != s.NumReceivers() {
					b.Fatalf("%d lists for %d receivers", len(nb), s.NumReceivers())
				}
			}
		})
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
// build, static check and run of the N = 32767 hypercube, all three replaying
// the run's one schedule snapshot. The run ends when its window is complete
// (slot 19 of a 264-slot horizon).
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
			res, err := run.Execute()
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

// BenchmarkDynamicChurnOps measures raw add/delete throughput.
func BenchmarkDynamicChurnOps(b *testing.B) {
	dy, err := multitree.NewDynamic(256, 3, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("b-%d", i)
		if _, err := dy.Add(name); err != nil {
			b.Fatal(err)
		}
		if _, err := dy.Delete(name); err != nil {
			b.Fatal(err)
		}
	}
}
