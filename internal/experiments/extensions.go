package experiments

import (
	"fmt"
	"math/rand"

	"streamcast/internal/analysis"
	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/gossip"
	"streamcast/internal/hypercube"
	"streamcast/internal/mdc"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
	"streamcast/internal/stats"
)

// DelayDistribution extends Figure 4 / Table 1 with full per-node playback
// delay distributions (the paper reports worst case and mean; percentiles
// expose how the two schemes spread delay across the swarm).
func DelayDistribution(ns []int, d int) (*Table, error) {
	t := &Table{
		ID:    "delaydist",
		Title: fmt.Sprintf("per-node playback delay distribution, d=%d", d),
		Columns: []string{
			"N", "scheme", "min", "p50", "mean", "p90", "p99", "max", "histogram",
		},
	}
	distRow := func(n int, name string, delays []float64) []interface{} {
		s := stats.Summarize(delays)
		hist := stats.Sparkline(stats.Histogram(delays, 12))
		return []interface{}{n, name, s.Min, s.P50, s.Mean, s.P90, s.P99, s.Max, hist}
	}
	groups, err := forEachRow(len(ns), func(i int) ([][]interface{}, error) {
		n := ns[i]
		_, res, err := multitreeResult(n, d, multitree.Greedy, core.PreRecorded)
		if err != nil {
			return nil, err
		}
		delays := make([]float64, 0, n)
		for id := 1; id <= n; id++ {
			delays = append(delays, float64(res.StartDelay[id]))
		}
		rows := [][]interface{}{distRow(n, "multi-tree", delays)}

		_, hres, err := hypercubeResult(n, 1)
		if err != nil {
			return nil, err
		}
		delays = make([]float64, 0, n)
		for id := 1; id <= n; id++ {
			delays = append(delays, float64(hres.StartDelay[id]))
		}
		rows = append(rows, distRow(n, "hypercube", delays))
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	addGroups(t, groups)
	return t, nil
}

// StructuredVsUnstructured contrasts the paper's provable-QoS schemes with
// an unstructured best-effort pull mesh at equal N and source capacity: the
// mesh's delay tail (p99/max) blows past the multi-tree's h·d guarantee,
// and stragglers may still be missing packets when the horizon ends — the
// paper's core argument for structured construction.
func StructuredVsUnstructured(ns []int, d int) (*Table, error) {
	t := &Table{
		ID:    "unstructured",
		Title: fmt.Sprintf("structured (provable QoS) vs gossip (best effort), d=%d", d),
		Columns: []string{
			"N", "scheme", "avg delay", "p99 delay", "max delay", "holes", "provable bound",
		},
	}
	groups, err := forEachRow(len(ns), func(i int) ([][]interface{}, error) {
		n := ns[i]
		_, res, err := multitreeResult(n, d, multitree.Greedy, core.PreRecorded)
		if err != nil {
			return nil, err
		}
		delays := make([]float64, 0, n)
		for id := 1; id <= n; id++ {
			delays = append(delays, float64(res.StartDelay[id]))
		}
		sum := stats.Summarize(delays)
		rows := [][]interface{}{{n, "multi-tree", sum.Mean, sum.P99, sum.Max,
			0, fmt.Sprintf("h*d = %d", analysis.Theorem2Bound(n, d))}}

		gsc := spec.GossipScenario(n, d, 5, gossip.PullOldest, 42)
		gsc.Packets = 3 * d
		gsc.Slots = 12*n/d + 100
		_, gres, err := specResult(gsc, false)
		if err != nil {
			return nil, err
		}
		delays = delays[:0]
		holes := 0
		for id := 1; id <= n; id++ {
			delays = append(delays, float64(gres.StartDelay[id]))
			holes += gres.Missing[id]
		}
		sum = stats.Summarize(delays)
		rows = append(rows, []interface{}{n, "gossip pull", sum.Mean, sum.P99, sum.Max, holes, "none (best effort)"})
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	addGroups(t, groups)
	return t, nil
}

// MidStreamSwaps measures the blast radius of a departure repaired while
// packets are in flight: the appendix deletion run live at a slot barrier
// (`churn kind=plan`), its position swaps landing between two slots of the
// stream. An all-leaf member leaves without a single swap and no survivor
// notices; an interior member's leave promotes replacements into its d
// interior positions, and the members those swaps move — plus the subtrees
// below them — glitch for one transition window. Hiccups are counted over
// the members still live at the end, each held to the start delay the
// undisturbed schedule gives it — the dynamic counterpart of the static
// ChurnImpact analysis.
func MidStreamSwaps(n, d int) (*Table, error) {
	t := &Table{
		ID:    "midstream",
		Title: fmt.Sprintf("mid-stream leave blast radius, N=%d d=%d", n, d),
		Columns: []string{
			"membership change", "swaps", "survivors w/ hiccups", "total hiccups", "max per survivor",
		},
	}
	scenario := func() *spec.Scenario {
		sc := spec.MultiTreeScenario(n, d, multitree.Greedy, core.PreRecorded)
		sc.Packets = 12 * d
		return sc
	}
	// The control run is the undisturbed schedule: its scheme supplies every
	// member's analytic start delay and the tree the leavers are picked from.
	// Every row counts hiccups cell by cell; the live rows keep their cells
	// already, the static control is asked to.
	control, err := spec.Build(scenario())
	if err != nil {
		return nil, err
	}
	control.Opt.Arrivals = new(slotsim.Arrivals)
	if _, err := simulateRun(control); err != nil {
		return nil, err
	}
	base := control.Scheme.(*multitree.Scheme)
	m := base.Tree
	leaveSlot := core.Slot(m.Height()*d + 7)

	// A real all-leaf member (a leaf in every tree): scan the tail of T_0
	// from the back, skipping padding dummies.
	var allLeaf core.NodeID
	for p := m.NP; p > m.NP-d && allLeaf == 0; p-- {
		if id := m.Trees[0][p-1]; !m.IsDummy(id) {
			allLeaf = id
		}
	}
	if allLeaf == 0 {
		return nil, fmt.Errorf("experiments: N=%d d=%d has no real all-leaf member", n, d)
	}
	interior := m.Trees[0][0]

	// A plan names a leaver by member name; the dynamic family numbers its
	// initial members like the static tree, so its listing translates.
	dy, err := multitree.NewDynamic(n, d, false)
	if err != nil {
		return nil, err
	}
	names := make(map[core.NodeID]string, n)
	for _, mem := range multitree.NewLiveScheme(dy, core.PreRecorded).Members() {
		names[mem.Node] = mem.Name
	}

	addRow := func(label string, run *spec.Run) {
		swaps := 0
		if run.Live != nil {
			swaps = run.Live.Summary().TotalSwaps
		}
		hit, total, worst := 0, 0, 0
		for _, id := range survivors(run) {
			if h := run.Opt.Arrivals.Hiccups(id, base.AnalyticStartDelay(id)); h > 0 {
				hit++
				total += h
				worst = max(worst, h)
			}
		}
		t.AddRow(label, swaps, hit, total, worst)
	}
	addRow("none (control)", control)
	for _, c := range []struct {
		label  string
		leaver core.NodeID
	}{
		{"all-leaf member leaves", allLeaf},
		{"interior member leaves", interior},
	} {
		sc := scenario()
		sc.ChurnKind = faults.ChurnPlan
		run, err := spec.BuildWithPlan(sc, &faults.Plan{Churn: []faults.ChurnEvent{
			{At: leaveSlot, Leave: true, Name: names[c.leaver]},
		}})
		if err != nil {
			return nil, err
		}
		if _, err := simulateRun(run); err != nil {
			return nil, err
		}
		addRow(c.label, run)
	}
	return t, nil
}

// MDCGracefulDegradation measures the Section 1 claim that the multi-tree
// scheme combines with Multiple Description Coding: under random packet
// loss and under an interior-node crash, playback without MDC accumulates
// hiccups while MDC playback degrades smoothly — and thanks to
// interior-disjointness a single crash costs every node at most one of the
// d descriptions.
func MDCGracefulDegradation(n, d int, lossRates []float64, seed int64) (*Table, error) {
	t := &Table{
		ID:    "mdc",
		Title: fmt.Sprintf("MDC over multi-tree, N=%d d=%d", n, d),
		Columns: []string{
			"failure", "hiccups w/o MDC (total)", "MDC mean quality", "MDC worst node",
		},
	}
	// The mdc family's default window and horizon are exactly this
	// experiment's measurement: rounds·d packets, h·d+3d slack, best effort.
	mdcRun, err := spec.Build(spec.MDCScenario(n, d, 6))
	if err != nil {
		return nil, err
	}
	m := mdcRun.Scheme.(*multitree.Scheme).Tree
	run := func(drop func(core.Transmission, core.Slot) bool) (*slotsim.Result, error) {
		opt := mdcRun.Opt
		opt.Drop = drop
		return slotsim.Run(mdcRun.Scheme, opt)
	}
	// Each run refills the cells the mdc family keeps; addRow reads them
	// before the next run starts.
	cells := mdcRun.Opt.Arrivals
	addRow := func(label string, res *slotsim.Result) {
		hiccups := 0
		for id := 1; id <= n; id++ {
			hiccups += cells.Hiccups(core.NodeID(id), res.StartDelay[id])
		}
		mean, worst := mdc.SystemQuality(res, cells, mdcRun.Descriptions())
		t.AddRow(label, hiccups, mean, worst)
	}
	for _, p := range lossRates {
		rng := rand.New(rand.NewSource(seed))
		res, err := run(func(core.Transmission, core.Slot) bool { return rng.Float64() < p })
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("%.1f%% random loss", p*100), res)
	}
	crashed := m.Trees[0][0]
	res, err := run(func(tx core.Transmission, _ core.Slot) bool { return tx.From == crashed })
	if err != nil {
		return nil, err
	}
	addRow("interior node crash", res)
	return t, nil
}

// ChurnImpact quantifies the playback-quality impact of churn on the
// multi-tree scheme (the appendix's "up to d² nodes may suffer hiccups"):
// over a random workload it reports, per operation, how many surviving
// members were perturbed, the packets they missed (hiccups) and the stall
// rounds they absorbed.
func ChurnImpact(n, d, ops int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "churnimpact",
		Title: fmt.Sprintf("churn-induced playback impact, N=%d d=%d, %d ops", n, d, ops),
		Columns: []string{
			"variant", "ops w/ impact", "avg impacted/op", "max impacted/op",
			"total missed pkts", "total stall rounds", "max |delay change|",
		},
	}
	for _, lazy := range []bool{false, true} {
		dy, err := multitree.NewDynamic(n, d, lazy)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		var opsWithImpact, totalImpacted, maxImpacted, missed, stalls int
		var maxDelayChange core.Slot
		for i := 0; i < ops; i++ {
			mBefore, namesBefore := dy.Snapshot()
			before := multitree.NewScheme(mBefore, core.PreRecorded)
			if rng.Intn(2) == 0 || dy.N() <= 2 {
				_, err = dy.Add(fmt.Sprintf("i-%d", i))
			} else {
				names := dy.Names()
				_, err = dy.Delete(names[rng.Intn(len(names))])
			}
			if err != nil {
				return nil, err
			}
			mAfter, namesAfter := dy.Snapshot()
			after := multitree.NewScheme(mAfter, core.PreRecorded)
			impacts := multitree.ChurnImpact(before, after, namesBefore, namesAfter)
			if len(impacts) > 0 {
				opsWithImpact++
				totalImpacted += len(impacts)
				if len(impacts) > maxImpacted {
					maxImpacted = len(impacts)
				}
			}
			for _, im := range impacts {
				missed += im.MissedPackets
				stalls += im.StallRounds
				dc := im.StartDelayChange
				if dc < 0 {
					dc = -dc
				}
				if dc > maxDelayChange {
					maxDelayChange = dc
				}
			}
		}
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.AddRow(name, opsWithImpact, float64(totalImpacted)/float64(ops),
			maxImpacted, missed, stalls, int(maxDelayChange))
	}
	return t, nil
}

// ChurnComparison contrasts the multi-tree churn algorithms (bounded d+d²
// swaps per op, Section 4 appendix) with the natural chained-hypercube
// churn algorithm (cheap off-boundary, catastrophic across 2^k−1
// boundaries) under an identical random workload — quantifying why the
// paper calls hypercube dynamics an open problem.
func ChurnComparison(n, d, ops int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "churncmp",
		Title: fmt.Sprintf("churn cost: multi-tree swaps vs hypercube relocations (%d ops)", ops),
		Columns: []string{
			"scheme", "total moves", "avg moves/op", "max moves/op", "worst-case bound",
		},
	}

	type op struct {
		add  bool
		pick int // victim index among current members for deletes
	}
	rng := rand.New(rand.NewSource(seed))
	size := n
	workload := make([]op, 0, ops)
	for i := 0; i < ops; i++ {
		if rng.Intn(2) == 0 || size <= 2 {
			workload = append(workload, op{add: true})
			size++
		} else {
			workload = append(workload, op{pick: rng.Intn(size)})
			size--
		}
	}

	// Multi-tree.
	dy, err := multitree.NewDynamic(n, d, false)
	if err != nil {
		return nil, err
	}
	total, max := 0, 0
	for i, o := range workload {
		var st multitree.OpStats
		if o.add {
			st, err = dy.Add(fmt.Sprintf("c-%d", i))
		} else {
			names := dy.Names()
			st, err = dy.Delete(names[o.pick%len(names)])
		}
		if err != nil {
			return nil, err
		}
		total += st.Swaps
		if st.Swaps > max {
			max = st.Swaps
		}
	}
	t.AddRow(fmt.Sprintf("multi-tree d=%d", d), total, float64(total)/float64(ops),
		max, fmt.Sprintf("d+d^2 = %d", d+d*d))

	// Chained hypercube.
	hdy, err := hypercube.NewDynamicHC(n)
	if err != nil {
		return nil, err
	}
	total, max = 0, 0
	for i, o := range workload {
		var moved int
		if o.add {
			moved, err = hdy.Add(fmt.Sprintf("c-%d", i))
		} else {
			names := hdy.Names()
			victim := names[core.NodeID(1+o.pick%hdy.N())]
			moved, err = hdy.Delete(victim)
		}
		if err != nil {
			return nil, err
		}
		total += moved
		if moved > max {
			max = moved
		}
	}
	t.AddRow("hypercube chain", total, float64(total)/float64(ops), max, "O(N) at 2^k-1 boundaries")
	return t, nil
}
