package experiments

import (
	"fmt"

	"streamcast/internal/analysis"
	"streamcast/internal/baseline"
	"streamcast/internal/cluster"
	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// multitreeResult builds (through the scheme registry), statically
// verifies, and simulates a multi-tree scheme, returning the engine result.
// The window stays at the experiments' historical 3d packets.
func multitreeResult(n, d int, c multitree.Construction, mode core.StreamMode) (*multitree.Scheme, *slotsim.Result, error) {
	sc := spec.MultiTreeScenario(n, d, c, mode)
	sc.Packets = 3 * d
	run, res, err := specResult(sc, true)
	if err != nil {
		return nil, nil, err
	}
	return run.Scheme.(*multitree.Scheme), res, nil
}

// hypercubeResult builds, statically verifies, and simulates a hypercube
// scheme over the experiments' historical 8-packet window.
func hypercubeResult(n, d int) (*hypercube.Scheme, *slotsim.Result, error) {
	sc := spec.HypercubeScenario(n, d)
	sc.Packets = 8
	run, res, err := specResult(sc, true)
	if err != nil {
		return nil, nil, err
	}
	return run.Scheme.(*hypercube.Scheme), res, nil
}

// analyticMultiTree builds a multi-tree scheme through the registry for
// closed-form schedule evaluation — no simulation, no verification.
func analyticMultiTree(n, d int, c multitree.Construction) (*multitree.Scheme, error) {
	run, err := spec.Build(spec.MultiTreeScenario(n, d, c, core.PreRecorded))
	if err != nil {
		return nil, err
	}
	return run.Scheme.(*multitree.Scheme), nil
}

// Figure4 reproduces the paper's Figure 4: worst-case startup delay (in
// time slots) versus the number of nodes, for tree degrees 2..5. The paper
// obtained the curve by simulation; here the schedule's closed form (which
// the test suite cross-validates against the simulator) is evaluated for
// every N, and a subset of sizes is additionally measured end to end.
func Figure4(maxN, step int, degrees []int, construction multitree.Construction) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "fig4",
		Title: "worst-case startup delay vs N (multi-tree)",
	}
	t.Columns = append(t.Columns, "N")
	for _, d := range degrees {
		t.Columns = append(t.Columns, fmt.Sprintf("degree %d", d))
	}
	return fillRows(t, maxN/step, func(i int) ([][]interface{}, error) {
		n := step * (i + 1)
		row := []interface{}{n}
		for _, d := range degrees {
			s, err := analyticMultiTree(n, d, construction)
			if err != nil {
				return nil, err
			}
			row = append(row, int(s.WorstAnalyticStartDelay()))
		}
		return [][]interface{}{row}, nil
	})
}

// Table1 reproduces the paper's Table 1 empirically: maximum delay, average
// delay, buffer size and neighbor count for the multi-tree scheme, the
// hypercube scheme at special N = 2^k−1, and the hypercube scheme at
// arbitrary N.
func Table1(ns []int, d int) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "table1",
		Title: fmt.Sprintf("multi-tree (d=%d) vs hypercube: measured QoS", d),
		Columns: []string{
			"N", "scheme", "max delay", "avg delay", "max buffer", "max neighbors",
		},
	}
	return fillRows(t, len(ns), func(i int) ([][]interface{}, error) {
		n := ns[i]
		s, res, err := multitreeResult(n, d, multitree.Greedy, core.PreRecorded)
		if err != nil {
			return nil, err
		}
		rows := [][]interface{}{{n, "multi-tree", int(res.WorstStartDelay()), res.AvgStartDelay(),
			res.WorstBuffer(), core.MaxNeighbors(s)}}

		// Nearest special size 2^k−1 <= n.
		k := 1
		for 1<<(k+1)-1 <= n {
			k++
		}
		special := 1<<k - 1
		hs, hres, err := hypercubeResult(special, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []interface{}{special, "hypercube 2^k-1", int(hres.WorstStartDelay()),
			hres.AvgStartDelay(), hres.WorstBuffer(), core.MaxNeighbors(hs)})

		ha, hares, err := hypercubeResult(n, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []interface{}{n, "hypercube chain", int(hares.WorstStartDelay()),
			hares.AvgStartDelay(), hares.WorstBuffer(), core.MaxNeighbors(ha)})

		hg, hgres, err := hypercubeResult(n, d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []interface{}{n, fmt.Sprintf("hypercube d=%d", d), int(hgres.WorstStartDelay()),
			hgres.AvgStartDelay(), hgres.WorstBuffer(), core.MaxNeighbors(hg)})
		return rows, nil
	})
}

// ClusterExperiment reproduces the Figure 1 / Theorem 1 setting: K clusters
// with backbone degree D and intra-cluster multi-trees of degree d; the
// measured end-to-end worst-case delay is compared with the Theorem 1
// estimate across Tc. Each row is a checked registry run at the family's
// default window of 3d packets; delay is measured over the true receivers
// only.
func ClusterExperiment(k, dd, d, clusterSize int, tcs []int) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "cluster",
		Title: fmt.Sprintf("multi-cluster delay, K=%d D=%d d=%d N/cluster=%d", k, dd, d, clusterSize),
		Columns: []string{
			"Tc", "measured worst", "measured avg", "theorem1 estimate",
		},
	}
	h := analysis.TreeHeight(clusterSize, d)
	return fillRows(t, len(tcs), func(i int) ([][]interface{}, error) {
		tc := tcs[i]
		run, res, err := specResult(spec.ClusterScenario(k, dd, tc, clusterSize, d, multitree.Greedy), true)
		if err != nil {
			return nil, err
		}
		worst, avg := run.Scheme.(*cluster.Scheme).ReceiverDelays(res)
		return [][]interface{}{{tc, int(worst), avg, analysis.Theorem1Bound(k, dd, tc, 1, d, h)}}, nil
	})
}

// DelayBounds compares measured worst-case and average delays of the
// multi-tree scheme against the Theorem 2 upper bound and the Theorem 3
// average lower bound.
func DelayBounds(ns []int, degrees []int) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "bounds",
		Title: "multi-tree measured delay vs Theorem 2 / Theorem 3",
		Columns: []string{
			"N", "d", "worst measured", "thm2 bound h*d", "avg measured", "thm3 lower",
		},
	}
	return fillRows(t, len(ns)*len(degrees), func(i int) ([][]interface{}, error) {
		n, d := ns[i/len(degrees)], degrees[i%len(degrees)]
		_, res, err := multitreeResult(n, d, multitree.Greedy, core.PreRecorded)
		if err != nil {
			return nil, err
		}
		return [][]interface{}{{n, d, int(res.WorstStartDelay()), analysis.Theorem2Bound(n, d),
			res.AvgStartDelay(), analysis.Theorem3LowerBound(n, d)}}, nil
	})
}

// HypercubeAvgDelay compares the measured average delay of chained
// hypercube streaming against the Theorem 4 bound 2·log2 N and the exact
// worst-case chain bound.
func HypercubeAvgDelay(ns []int) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "hcavg",
		Title: "chained hypercube: measured delay vs Theorem 4",
		Columns: []string{
			"N", "cubes", "avg measured", "2*log2(N)", "worst measured", "sum dims",
		},
	}
	return fillRows(t, len(ns), func(i int) ([][]interface{}, error) {
		n := ns[i]
		s, res, err := hypercubeResult(n, 1)
		if err != nil {
			return nil, err
		}
		dims := s.CubeDims()[0]
		return [][]interface{}{{n, fmt.Sprintf("%v", dims), res.AvgStartDelay(), analysis.Theorem4Bound(n),
			int(res.WorstStartDelay()), analysis.Proposition2WorstDelay(n)}}, nil
	})
}

// DegreeOptimization reproduces the Section 2.3 analysis: the smooth bound
// F(d) per degree and the simulated optimal degree, confirming that degree
// 2 or 3 is always optimal.
func DegreeOptimization(ns []int, maxD int) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "degree",
		Title: "tree degree optimization (Section 2.3)",
	}
	t.Columns = []string{"N"}
	for d := 2; d <= maxD; d++ {
		t.Columns = append(t.Columns, fmt.Sprintf("F(%d)", d))
	}
	t.Columns = append(t.Columns, "argmin F", "argmin measured")
	return fillRows(t, len(ns), func(i int) ([][]interface{}, error) {
		n := ns[i]
		row := []interface{}{n}
		for d := 2; d <= maxD; d++ {
			row = append(row, analysis.DegreeF(n, d))
		}
		row = append(row, analysis.OptimalDegreeF(n, maxD))
		bestD, bestV := 0, core.Slot(1<<30)
		for d := 2; d <= maxD; d++ {
			s, err := analyticMultiTree(n, d, multitree.Greedy)
			if err != nil {
				return nil, err
			}
			if worst := s.WorstAnalyticStartDelay(); worst < bestV {
				bestD, bestV = d, worst
			}
		}
		row = append(row, bestD)
		return [][]interface{}{row}, nil
	})
}

// ChurnSurvival measures churn as a live, mid-run workload (replacing the
// old offline swap-count sweep): for the eager and lazy repair policies
// across sustained poisson churn rates, the stream keeps flowing while the
// topology re-plans at slot barriers, and each row records what the
// operations cost (swaps against the appendix d²+d bound) next to what
// playback quality the surviving members saw (hiccups, distinct stalls,
// rebuffer ratio, time to repair). Every row is a churn-directive Scenario,
// so the sweep exercises exactly what a `churn kind=poisson` scenario runs.
func ChurnSurvival(n, d, packets int, rates []float64, seed int64) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "churn",
		Title: fmt.Sprintf("live churn survival, N=%d d=%d over %d packets", n, d, packets),
		Columns: []string{
			"policy", "rate", "ops", "joins", "leaves",
			"avg swaps/op", "max swaps/op", "bound d²+d",
			"hiccups", "gaps", "max stall", "rebuffer", "repair slots",
		},
	}
	policies := []string{"", "lazy"}
	return fillRows(t, len(policies)*len(rates), func(i int) ([][]interface{}, error) {
		policy := policies[i/len(rates)]
		rate := rates[i%len(rates)]
		sc := spec.MultiTreeScenario(n, d, multitree.Greedy, core.PreRecorded)
		sc.Packets = packets
		sc.Churn = &faults.Churn{
			Kind: faults.ChurnPoisson, Rate: rate, Seed: seed, Lazy: policy == "lazy",
			// Let the initial construction settle before the first op lands.
			Begin: 5,
		}
		run, res, err := specResult(sc, false)
		if err != nil {
			return nil, err
		}
		churn := run.ChurnReport(res)
		name := "eager"
		if policy == "lazy" {
			name = "lazy"
		}
		return [][]interface{}{{name, rate, churn.Ops, churn.Joins, churn.Leaves,
			churn.AvgSwaps, churn.MaxSwaps, churn.SwapBound,
			churn.Hiccups, churn.Gaps, churn.MaxStallSlots,
			fmt.Sprintf("%.4f", churn.RebufferRatio), churn.TimeToRepairSlots}}, nil
	})
}

// Baselines compares the chain and single-tree strawmen against the
// multi-tree and hypercube schemes (the Section 1 motivation). The strawmen
// keep their historical 5-packet live window; the single tree additionally
// keeps its tighter 2h+8 horizon, so the scenario pins Slots explicitly.
func Baselines(ns []int) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "baselines",
		Title: "strawmen vs paper schemes",
		Columns: []string{
			"N", "scheme", "max delay", "max buffer", "max neighbors", "upload factor",
		},
	}
	return fillRows(t, len(ns), func(i int) ([][]interface{}, error) {
		n := ns[i]
		chSc := spec.ChainScenario(n)
		chSc.Mode = "live"
		chSc.Packets = 5
		chRun, cres, err := specResult(chSc, false)
		if err != nil {
			return nil, err
		}
		rows := [][]interface{}{{n, "chain", int(cres.WorstStartDelay()), cres.WorstBuffer(),
			core.MaxNeighbors(chRun.Scheme), 1}}

		stSc := spec.SingleTreeScenario(n, 2)
		stSc.Mode = "live"
		stSc.Packets = 5
		stSc.Slots = 5 + 2*analysis.TreeHeight(n, 2) + 8
		stRun, stres, err := specResult(stSc, false)
		if err != nil {
			return nil, err
		}
		st := stRun.Scheme.(*baseline.SingleTree)
		rows = append(rows, []interface{}{n, "single tree b=2", int(stres.WorstStartDelay()),
			stres.WorstBuffer(), core.MaxNeighbors(st), st.UploadFactor()})

		for _, d := range []int{2, 3} {
			s, res, err := multitreeResult(n, d, multitree.Greedy, core.PreRecorded)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []interface{}{n, fmt.Sprintf("multi-tree d=%d", d), int(res.WorstStartDelay()),
				res.WorstBuffer(), core.MaxNeighbors(s), 1})
		}
		hs, hres, err := hypercubeResult(n, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []interface{}{n, "hypercube chain", int(hres.WorstStartDelay()),
			hres.WorstBuffer(), core.MaxNeighbors(hs), 1})
		return rows, nil
	})
}

// LiveModes compares the three multi-tree stream modes (an ablation of the
// Section 2.2.3 live-streaming variants): the pre-buffered variant costs
// exactly d extra slots, the pipelined variant between 0 and d−1.
func LiveModes(ns []int, d int) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "livemodes",
		Title: fmt.Sprintf("multi-tree stream modes, d=%d", d),
		Columns: []string{
			"N", "mode", "worst delay", "avg delay", "max buffer",
		},
	}
	return fillRows(t, len(ns), func(i int) ([][]interface{}, error) {
		n := ns[i]
		var rows [][]interface{}
		for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
			_, res, err := multitreeResult(n, d, multitree.Greedy, mode)
			if err != nil {
				return nil, err
			}
			rows = append(rows, []interface{}{n, mode.String(), int(res.WorstStartDelay()),
				res.AvgStartDelay(), res.WorstBuffer()})
		}
		return rows, nil
	})
}

// SchemeMatrix is the registry-driven sweep: every registered scheme family
// is run once at a common size through its family-default scenario, so a
// newly registered family shows up as a comparison row (and in
// `streamsim -list-schemes`) without touching the experiments code. Statically
// checkable families are verified before they are measured.
func SchemeMatrix(n int) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "schemes",
		Title: fmt.Sprintf("every registered scheme at n=%d (family defaults)", n),
		Columns: []string{
			"scheme", "mode", "packets", "slots", "checked",
			"worst delay", "avg delay", "max buffer", "missing",
		},
	}
	for _, f := range spec.Families() {
		sc := &spec.Scenario{Scheme: f.Name, Params: map[string]string{"n": fmt.Sprint(n)}}
		run, res, err := specResult(sc, f.Caps.StaticCheck)
		if err != nil {
			return nil, fmt.Errorf("schemes: %s: %w", f.Name, err)
		}
		checked := "-"
		if f.Caps.StaticCheck {
			checked = "ok"
		}
		missing := 0
		for _, v := range res.Missing {
			missing += v
		}
		t.AddRow(f.Name, run.Opt.Mode.String(), int(run.Opt.Packets), int(run.Opt.Slots),
			checked, int(res.WorstStartDelay()), res.AvgStartDelay(), res.WorstBuffer(), missing)
	}
	return t, nil
}
