package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/randreg"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
	"streamcast/internal/stats"
)

// receiverDelays extracts the per-receiver playback delays as a sample
// vector for quantile estimation.
func receiverDelays(res *slotsim.Result) []float64 {
	out := make([]float64, res.N)
	for id := 1; id <= res.N; id++ {
		out[id-1] = float64(res.StartDelay[id])
	}
	return out
}

// RandRegFrontier places the random-regular-digraph family on the paper's
// delay/buffer frontier against the deterministic constructions: at each
// population size the multi-tree and hypercube-chain schemes run once (they
// are deterministic), while each randreg mode runs `trials` independently
// seeded digraphs (seeds derived from baseSeed via stats.TrialSeeds, so the
// sweep is exactly reproducible). Delay quantiles pool the per-receiver
// playback delays across trials; buffer and missing-packet counts report
// the worst trial and the total across trials respectively.
func RandRegFrontier(ns []int, degree, trials int, baseSeed int64) (*Table, error) {
	defer hold()()
	t := &Table{
		ID:    "randreg",
		Title: fmt.Sprintf("randreg vs deterministic schemes, degree=%d, %d trials", degree, trials),
		Columns: []string{
			"N", "scheme", "trials", "p50 delay", "p99 delay", "max delay", "max buffer", "missing",
		},
	}
	// One task per simulation — per population size the two deterministic
	// schemes, then every trial's three modes in a row (seed-major) — so the
	// largest size's runs spread over the workers instead of queueing behind
	// one. Each task leaves its receivers' delays, worst buffer and missing
	// count in its own cell; rows are assembled afterwards, pooling trials in
	// seed order. The three modes of a seed run on one digraph, drawn by
	// whichever of them starts first and dropped when the last one finishes,
	// so at most a few graphs are live however many trials the table has.
	modes := []string{"latin", "pull", "push"}
	seeds := stats.TrialSeeds(baseSeed, trials)
	perN := 2 + len(modes)*trials
	type outcome struct {
		delays          []float64
		maxBuf, missing int
	}
	graphs := make([]sharedGraph, len(ns)*trials)
	for i := range graphs {
		n, seed := ns[i/trials], seeds[i%trials]
		graphs[i].draw = sync.OnceValues(func() (*randreg.Digraph, error) {
			return spec.RandRegGraph(n, degree, seed)
		})
		graphs[i].users.Store(int32(len(modes)))
	}
	runs := make([]outcome, len(ns)*perN)
	err := forEachTask(len(runs), func(i int) error {
		n, k := ns[i/perN], i%perN
		var sc *spec.Scenario
		var what string
		switch k {
		case 0:
			sc = spec.MultiTreeScenario(n, degree, multitree.Greedy, core.Live)
			sc.Packets = 3 * degree
			what = fmt.Sprintf("multitree n=%d", n)
		case 1:
			sc = spec.HypercubeScenario(n, 1)
			sc.Packets = 3 * degree
			what = fmt.Sprintf("hypercube n=%d", n)
		default:
			trial, mode := (k-2)/len(modes), modes[(k-2)%len(modes)]
			what = fmt.Sprintf("mode=%s n=%d seed=%d", mode, n, seeds[trial])
			shared := &graphs[i/perN*trials+trial]
			g, err := shared.draw()
			if err != nil {
				return fmt.Errorf("randreg: %s: %w", what, err)
			}
			defer shared.release()
			sc = spec.RandRegScenarioOn(g, mode, seeds[trial])
		}
		_, res, err := specResult(sc, false)
		if err != nil {
			return fmt.Errorf("randreg: %s: %w", what, err)
		}
		o := outcome{delays: receiverDelays(res), maxBuf: res.WorstBuffer()}
		for _, m := range res.Missing {
			o.missing += m
		}
		runs[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		at := runs[i*perN:]
		mt := stats.Summarize(at[0].delays)
		t.AddRow(n, fmt.Sprintf("multi-tree d=%d", degree), 1, mt.P50, mt.P99, mt.Max, at[0].maxBuf, 0)
		hc := stats.Summarize(at[1].delays)
		t.AddRow(n, "hypercube chain", 1, hc.P50, hc.P99, hc.Max, at[1].maxBuf, 0)
		for m, mode := range modes {
			var q stats.TrialQuantiles
			maxBuf, missing := 0, 0
			for trial := 0; trial < trials; trial++ {
				o := at[2+trial*len(modes)+m]
				q.AddTrial(o.delays)
				maxBuf = max(maxBuf, o.maxBuf)
				missing += o.missing
			}
			pooled := q.Pooled()
			t.AddRow(n, "randreg "+mode, trials, pooled.P50, pooled.P99, pooled.Max, maxBuf, missing)
		}
	}
	return t, nil
}

// sharedGraph is one (N, seed) digraph of RandRegFrontier, shared by that
// seed's runs: draw returns the same graph to each of them, and release,
// once every user has called it, drops the table's reference.
type sharedGraph struct {
	draw  func() (*randreg.Digraph, error)
	users atomic.Int32
}

// release marks one user done; the last one lets the graph go. Every user
// called draw before its release, so nothing reads draw after it is cleared.
func (s *sharedGraph) release() {
	if s.users.Add(-1) == 0 {
		s.draw = nil
	}
}
