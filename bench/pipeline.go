package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// Span names: one per public call the pipeline makes into a layer.
const (
	spanPipeline    = "pipeline"
	spanParse       = "spec.Parse"
	spanBuild       = "spec.Build"
	spanCheck       = "Run.Preflight"
	spanCompile     = "core.CompileForRun"
	spanRun         = "slotsim.Run"
	spanChurnReport = "Run.ChurnReport"
	spanNeighbors   = "Scheme.Neighbors"
	spanFlush       = "JSONLWriter.Flush"
	spanProm        = "Metrics.WriteProm"
	spanBuildReport = "slotsim.BuildReport"
	spanWriteJSON   = "RunReport.WriteJSON"
)

// pipeline replays one streamsim workload in-process: the same calls, in
// the same order, that cmd/streamsim's runScenario makes, with a span
// around each. One Runner is held across iterations so iteration 0 is cold
// (empty scratch, no worker pool) and the rest are warm. The compile step
// is hoisted out of the run — Runner.prepared returns an already compiled
// scheme unchanged — so compile and slot loop are timed apart.
type pipeline struct {
	text   string // scenario text, as the CLI reads it
	dir    string // where the scenario file lives: relative paths resolve here
	runner *slotsim.Runner
}

// pipelineRun holds the facts of one iteration that spans do not carry.
type pipelineRun struct {
	totalMs, runMs float64
	nodeSlots      float64 // (receivers+1)·slots_used — the Result itself is not retained
	compiled       bool
	compiledTxs    int
	inject         *countingInjector
	churn          *timedChurn
	stdout         []byte // the CLI's text report, rebuilt
	report         []byte // report JSON, as written
	fingerprint    string
	events         int
	jsonlBytes     int64
}

// countingInjector counts the engine's calls into the fault injector.
type countingInjector struct {
	inner        slotsim.Injector
	calls, drops int64
}

func (c *countingInjector) DropTx(tx core.Transmission, t core.Slot) bool {
	c.calls++
	drop := c.inner.DropTx(tx, t)
	if drop {
		c.drops++
	}
	return drop
}

func (c *countingInjector) DelayTx(tx core.Transmission, t core.Slot) core.Slot {
	return c.inner.DelayTx(tx, t)
}

// timedChurn times and counts the churn source; the engine calls it once
// per slot, so two clock reads per call cost nothing measurable.
type timedChurn struct {
	inner         slotsim.ChurnSource
	busy          time.Duration
	ops, maxSwaps int
}

func (c *timedChurn) MaxNodes() int { return c.inner.MaxNodes() }

func (c *timedChurn) Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error) {
	start := time.Now()
	stats, err := c.inner.Step(t, ds)
	c.busy += time.Since(start)
	c.ops += len(stats)
	for _, st := range stats {
		if st.Swaps > c.maxSwaps {
			c.maxSwaps = st.Swaps
		}
	}
	return stats, err
}

// once runs the pipeline one time. tweak, when non-nil, edits the parsed
// scenario (the sharded/sequential twin, the observer-overhead variants).
func (pl *pipeline) once(tr *tracer, tweak func(*spec.Scenario)) (*pipelineRun, error) {
	pr := &pipelineRun{}
	// As before a child run: no stale outputs (truncating the last trace
	// file would be charged to this iteration), and the same heap state.
	for _, name := range outputFiles {
		os.RemoveAll(filepath.Join(pl.dir, name))
	}
	runtime.GC()
	start := time.Now()
	err := tr.do(spanPipeline, func() error { return pl.body(tr, tweak, pr) })
	pr.totalMs = msSince(start)
	return pr, err
}

func (pl *pipeline) body(tr *tracer, tweak func(*spec.Scenario), pr *pipelineRun) error {
	var sc *spec.Scenario
	if err := tr.do(spanParse, func() (err error) { sc, err = spec.Parse(pl.text); return }); err != nil {
		return err
	}
	if tweak != nil {
		tweak(sc)
	}
	// What spec.Load does for a scenario file, and what the child's working
	// directory does for its outputs: relative paths travel with the file.
	for _, path := range []*string{&sc.FaultsFile, &sc.MetricsOut, &sc.TraceOut, &sc.ReportOut} {
		if *path != "" {
			*path = filepath.Join(pl.dir, *path)
		}
	}

	var run *spec.Run
	if err := tr.do(spanBuild, func() (err error) { run, err = spec.Build(sc); return }); err != nil {
		return err
	}
	if sc.Check {
		err := tr.do(spanCheck, func() error {
			rep, err := run.Preflight()
			if err == nil && !rep.OK() {
				err = fmt.Errorf("static check rejected %s (%d issues)", rep.Scheme, len(rep.Issues))
			}
			return err
		})
		if err != nil {
			return err
		}
	}

	// Sinks, opened up front as the CLI does.
	var (
		metrics   *obs.Metrics
		trace     *obs.JSONLWriter
		traceOut  *os.File
		observers []obs.Observer
	)
	if sc.MetricsOut != "" || sc.ReportOut != "" {
		metrics = obs.NewMetrics()
		observers = append(observers, metrics)
	}
	if sc.TraceOut != "" {
		f, err := os.Create(sc.TraceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		traceOut, trace = f, obs.NewJSONLWriter(f)
		observers = append(observers, trace)
	}
	opt := run.Opt
	opt.Observer = obs.Combine(observers...)
	if tr.on && opt.Inject != nil {
		pr.inject = &countingInjector{inner: opt.Inject}
		opt.Inject = pr.inject
	}
	if tr.on && opt.Churn != nil {
		pr.churn = &timedChurn{inner: opt.Churn}
		opt.Churn = pr.churn
	}

	scheme := run.Scheme
	if run.Live == nil { // a live topology compiles per epoch, inside the run
		_ = tr.do(spanCompile, func() error {
			if c := core.CompileForRun(scheme, opt.Slots); c != nil {
				_, _, backing, _ := c.Window()
				scheme, pr.compiled, pr.compiledTxs = c, true, len(backing)
			}
			return nil
		})
	}

	var res *slotsim.Result
	workers := 0
	runStart := time.Now()
	err := tr.do(spanRun, func() (err error) {
		if sc.Parallel {
			workers = sc.Workers
			res, err = pl.runner.RunParallel(scheme, opt, sc.Workers)
		} else {
			res, err = pl.runner.Run(scheme, opt)
		}
		return err
	})
	pr.runMs = msSince(runStart)
	if err != nil {
		return err
	}
	pr.nodeSlots = float64(res.N+1) * float64(res.SlotsUsed)

	var churn *obs.ChurnSLO
	if run.Live != nil {
		_ = tr.do(spanChurnReport, func() error { churn = run.ChurnReport(res); return nil })
	}

	// The CLI's text report: Neighbors() is its only non-trivial call.
	var neighbors map[core.NodeID][]core.NodeID
	_ = tr.do(spanNeighbors, func() error { neighbors = run.Scheme.Neighbors(); return nil })
	pr.stdout = textReport(run, res, neighbors)

	if trace != nil {
		if err := tr.do(spanFlush, trace.Flush); err != nil {
			return err
		}
		if err := traceOut.Close(); err != nil {
			return err
		}
		if st, err := os.Stat(sc.TraceOut); err == nil {
			pr.jsonlBytes = st.Size()
		}
	}
	if sc.MetricsOut != "" {
		var buf bytes.Buffer
		if err := tr.do(spanProm, func() error { return metrics.WriteProm(&buf, scheme.Name()) }); err != nil {
			return err
		}
		if err := os.WriteFile(sc.MetricsOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if sc.ReportOut != "" {
		var rep *obs.RunReport
		_ = tr.do(spanBuildReport, func() error {
			rep = slotsim.BuildReport(scheme, opt, res, metrics, workers)
			return nil
		})
		rep.Churn = churn
		var buf bytes.Buffer
		if err := tr.do(spanWriteJSON, func() error { return rep.WriteJSON(&buf) }); err != nil {
			return err
		}
		if err := os.WriteFile(sc.ReportOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		pr.report = buf.Bytes()
	}
	if metrics != nil {
		pr.fingerprint = metrics.Fingerprint()
		tot := metrics.Totals()
		pr.events = 2*int(opt.Slots) + tot.Transmits + tot.Delivers + tot.Drops
	}
	return nil
}

// textReport rebuilds the text cmd/streamsim prints for the families the
// workloads use, so the in-process pipeline can be held byte for byte to
// the CLI it stands in for.
func textReport(run *spec.Run, res *slotsim.Result, neighbors map[core.NodeID][]core.NodeID) []byte {
	var b bytes.Buffer
	s := run.Scheme
	fmt.Fprintf(&b, "scheme:        %s\n", s.Name())
	fmt.Fprintf(&b, "receivers:     %d\n", s.NumReceivers())
	fmt.Fprintf(&b, "worst delay:   %d slots\n", res.WorstStartDelay())
	fmt.Fprintf(&b, "avg delay:     %.2f slots\n", res.AvgStartDelay())
	fmt.Fprintf(&b, "worst buffer:  %d packets\n", res.WorstBuffer())
	maxNb := 0
	for _, nb := range neighbors {
		if len(nb) > maxNb {
			maxNb = len(nb)
		}
	}
	fmt.Fprintf(&b, "max neighbors: %d\n", maxNb)
	fmt.Fprintf(&b, "slots used:    %d\n", res.SlotsUsed)
	if run.Injector != nil {
		degraded, missing := 0, 0
		for id := 1; id <= s.NumReceivers(); id++ {
			if res.Missing[id] > 0 {
				degraded++
				missing += res.Missing[id]
			}
		}
		fmt.Fprintf(&b, "faulted:       %d of %d nodes missing packets (%d packets total)\n",
			degraded, s.NumReceivers(), missing)
	}
	return b.Bytes()
}

// generateMs times the scheme's own slot generation: uncompiled
// Transmissions(t) over the run's horizon, on a freshly built scheme.
func (pl *pipeline) generateMs() (float64, error) {
	sc, err := spec.Parse(pl.text)
	if err != nil {
		return 0, err
	}
	if sc.FaultsFile != "" {
		sc.FaultsFile = filepath.Join(pl.dir, sc.FaultsFile)
	}
	run, err := spec.Build(sc)
	if err != nil {
		return 0, err
	}
	var passes []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		for t := core.Slot(0); t < run.Opt.Slots; t++ {
			run.Scheme.Transmissions(t)
		}
		passes = append(passes, msSince(start))
	}
	return median(passes), nil
}

// tracedIter is one in-process iteration: its facts and, when it ran with
// the tracer on, its spans.
type tracedIter struct {
	*pipelineRun
	spans []span
}

// twin makes a scenario sequential or two-worker sharded.
func twin(sharded bool) func(*spec.Scenario) {
	return func(sc *spec.Scenario) {
		sc.Parallel, sc.Workers = sharded, 0
		if sharded {
			sc.Workers = 2
		}
	}
}

// runMsOf replays the pipeline, spans off, under each named variant in
// turn, rounds+1 times over, and returns each variant's median slot-loop
// time. The first round is discarded: it spawns the worker pool and grows
// the observers' buffers.
func (pl *pipeline) runMsOf(tr *tracer, rounds int, names []string, variants map[string]func(*spec.Scenario)) (map[string]float64, error) {
	tr.on = false
	samples := map[string][]float64{}
	for i := 0; i <= rounds; i++ {
		for _, name := range names {
			pr, err := pl.once(tr, variants[name])
			if err != nil {
				return nil, fmt.Errorf("variant %s: %w", name, err)
			}
			if i > 0 {
				samples[name] = append(samples[name], pr.runMs)
			}
		}
	}
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out, nil
}

// traced is the per-layer pass of one streamsim workload: the pipeline
// replayed in-process — iteration 0 cold, then warm iterations alternating
// traced and untraced — plus the variant runs some layer ratios need. It
// fills res.PerLayer, prints the where-did-the-time-go table, appends
// correctness failures to res, and returns the recorded spans.
func (h *harness) traced(p *prepared, res *workloadResult) ([]span, error) {
	pl := &pipeline{text: p.in.scenario, dir: p.dir, runner: slotsim.NewRunner()}
	defer pl.runner.Close()
	tr := newTracer(p.w.name)
	warmIters := 4
	if h.smoke {
		warmIters = 1
	}

	iterate := func(iter int, on bool) (tracedIter, error) {
		tr.on, tr.iter = on, iter
		pr, err := pl.once(tr, nil)
		if err != nil {
			return tracedIter{}, fmt.Errorf("%s in-process iteration %d: %w", p.w.name, iter, err)
		}
		return tracedIter{pr, tr.iterSpans(iter)}, nil
	}
	cold, err := iterate(0, true)
	if err != nil {
		return nil, err
	}
	var warm, untraced []tracedIter
	for i := 1; i <= warmIters; i++ {
		it, err := iterate(i, true)
		if err != nil {
			return nil, err
		}
		warm = append(warm, it)
		if i < warmIters || warmIters == 1 {
			if it, err = iterate(-1, false); err != nil {
				return nil, err
			}
			untraced = append(untraced, it)
		}
	}

	// The in-process pipeline must be the CLI's pipeline: same text report,
	// same report bytes (and so the same schedule fingerprint).
	cli := res.first
	var bad []string
	if !bytes.Equal(cold.stdout, cli.stdout) {
		bad = append(bad, "in-process text report differs from the CLI's stdout")
	}
	if !bytes.Equal(cold.report, cli.report) {
		bad = append(bad, "in-process report JSON differs from the CLI's report file")
	}
	if cli.report != nil {
		if rep, err := obs.ReadReport(bytes.NewReader(cli.report)); err != nil || rep.Fingerprint != cold.fingerprint {
			bad = append(bad, "CLI report fingerprint does not match the in-process fingerprint "+cold.fingerprint)
		}
	}
	res.record(0, bad...)

	L := res.PerLayer
	layerMetrics(L, res.EndToEnd["wall_ms_p50"].Value, cold, warm, untraced)
	if p.w.stream == "dense" {
		ms, err := pl.runMsOf(tr, warmIters, []string{"seq", "sharded"},
			map[string]func(*spec.Scenario){"seq": twin(false), "sharded": twin(true)})
		if err != nil {
			return nil, err
		}
		L["slotsim.sharded_over_seq"] = value{Value: ms["sharded"] / ms["seq"], Unit: "ratio"}
	}
	if p.w.name == "observed" {
		ms, err := pl.runMsOf(tr, warmIters, []string{"none", "metrics", "jsonl"}, map[string]func(*spec.Scenario){
			"none":    func(sc *spec.Scenario) { sc.MetricsOut, sc.TraceOut, sc.ReportOut = "", "", "" },
			"metrics": func(sc *spec.Scenario) { sc.TraceOut, sc.ReportOut = "", "" },
			"jsonl":   func(sc *spec.Scenario) { sc.MetricsOut, sc.ReportOut = "", "" },
		})
		if err != nil {
			return nil, err
		}
		L["obs.metrics_overhead_ratio"] = value{Value: ms["metrics"] / ms["none"], Unit: "ratio"}
		L["obs.jsonl_overhead_ratio"] = value{Value: ms["jsonl"] / ms["none"], Unit: "ratio"}
	}
	gen, err := pl.generateMs()
	if err != nil {
		return nil, err
	}
	L["scheme.generate_ms"] = value{Value: gen, Unit: "ms"}

	var warmSelf []map[string]float64
	for _, it := range warm {
		warmSelf = append(warmSelf, selfTimes(it.spans))
	}
	printWhere(h.log, p.w.name, selfTimes(cold.spans), warmSelf)
	fmt.Fprintf(h.log, "  engine share of pipeline %.3f, compile share %.3f, sharded/sequential %s\n\n",
		L["slotsim.share_of_pipeline"].Value,
		L["core.compile_ms"].Value/L["pipeline.total_ms"].Value,
		formatNumber(L["slotsim.sharded_over_seq"].Value))
	return tr.spans, nil
}

// layerMetrics derives the per-layer metrics from the traced iterations:
// warm medians for times and allocations, iteration 0 for the cold ones,
// counts from the last warm iteration.
func layerMetrics(L map[string]value, cliWallMs float64, cold tracedIter, warm, untraced []tracedIter) {
	named := func(spans []span, name string) (span, bool) {
		for _, s := range spans {
			if s.Name == name {
				return s, true
			}
		}
		return span{}, false
	}
	warmOf := func(name string, f func(span) float64) float64 {
		var xs []float64
		for _, it := range warm {
			if s, ok := named(it.spans, name); ok {
				xs = append(xs, f(s))
			}
		}
		return median(xs)
	}
	ms := func(name string) float64 { return warmOf(name, span.ms) }
	coldMs := func(name string) float64 { s, _ := named(cold.spans, name); return s.ms() }
	allocs := func(s span) float64 { return float64(s.Allocs) }
	mb := func(s span) float64 { return float64(s.Bytes) / (1 << 20) }
	set := func(name string, v float64, unit string) { L[name] = value{Value: v, Unit: unit} }

	set("spec.parse_ms", ms(spanParse), "ms")
	set("spec.build_ms", ms(spanBuild), "ms")
	set("spec.build_alloc_mb", warmOf(spanBuild, mb), "MB")
	set("check.static_ms", ms(spanCheck), "ms")
	set("core.compile_ms", ms(spanCompile), "ms")
	set("scheme.neighbors_ms", ms(spanNeighbors), "ms")
	set("slotsim.run_ms", ms(spanRun), "ms")
	set("slotsim.run_cold_ms", coldMs(spanRun), "ms")
	set("slotsim.run_allocs", warmOf(spanRun, allocs), "count")
	set("slotsim.run_alloc_mb", warmOf(spanRun, mb), "MB")
	set("slotsim.churn_report_ms", ms(spanChurnReport), "ms")
	set("slotsim.build_report_ms", ms(spanBuildReport), "ms")
	set("obs.write_json_ms", ms(spanWriteJSON), "ms")
	set("obs.write_prom_ms", ms(spanProm), "ms")
	set("obs.jsonl_flush_ms", ms(spanFlush), "ms")
	set("pipeline.total_ms", ms(spanPipeline), "ms")
	set("pipeline.cold_ms", coldMs(spanPipeline), "ms")
	set("pipeline.allocs", warmOf(spanPipeline, allocs), "count")
	set("pipeline.alloc_mb", warmOf(spanPipeline, mb), "MB")

	last := warm[len(warm)-1]
	compiled := 0.0
	if last.compiled {
		compiled = 1
	}
	set("core.compiled", compiled, "count")
	set("core.compiled_txs", float64(last.compiledTxs), "count")
	set("obs.events", float64(last.events), "count")
	set("obs.write_json_bytes", float64(len(last.report)), "bytes")
	set("obs.jsonl_bytes", float64(last.jsonlBytes), "bytes")
	if last.inject != nil {
		set("faults.inject_calls", float64(last.inject.calls), "count")
		set("faults.inject_drops", float64(last.inject.drops), "count")
	}
	if last.churn != nil {
		var busy []float64
		for _, it := range warm {
			busy = append(busy, float64(it.churn.busy)/float64(time.Millisecond))
		}
		set("faults.churn_step_ms", median(busy), "ms")
		set("faults.churn_ops", float64(last.churn.ops), "count")
		set("faults.churn_swaps_max", float64(last.churn.maxSwaps), "count")
	}

	total, run := L["pipeline.total_ms"].Value, L["slotsim.run_ms"].Value
	set("slotsim.share_of_pipeline", run/total, "share")
	set("slotsim.node_slots_per_s", last.nodeSlots/(run/1000), "1/s")
	// Each untraced iteration ran right after a traced one; the median of
	// the pairwise ratios is steadier than a ratio of medians when the host
	// speeds up or slows down between pairs.
	var unattributed, plain, overhead []float64
	for _, it := range warm {
		unattributed = append(unattributed, selfTimes(it.spans)[spanPipeline])
	}
	for i, it := range untraced {
		plain = append(plain, it.totalMs)
		overhead = append(overhead, warm[i].totalMs/it.totalMs)
	}
	set("pipeline.unattributed_share", median(unattributed)/total, "share")
	set("pipeline.untraced_ms", median(plain), "ms")
	set("pipeline.trace_overhead_ratio", median(overhead), "ratio")
	set("cli.over_pipeline_ratio", cliWallMs/L["pipeline.cold_ms"].Value, "ratio")
}

// tracedSweep is the per-layer pass of the sweep workload: one child run of
// `experiments -run <id>` per table, timed from outside.
func (h *harness) tracedSweep(p *prepared, res *workloadResult) {
	for i, id := range tableIDs {
		args := []string{"-run", id, "-csv"}
		if h.smoke {
			args = append(args, "-quick")
		}
		c := runChild(p.bin, p.dir, p.deadline, args...)
		if c.err != nil || len(c.stdout) == 0 {
			res.record(i, fmt.Sprintf("experiments -run %s printed no table: %v", id, c.err))
			continue
		}
		res.record(i)
		res.PerLayer["experiments."+id+".wall_ms"] = value{Value: c.wallMs, Unit: "ms"}
	}
}
