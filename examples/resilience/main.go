// Resilience: a live multi-tree swarm hit by packet loss, a node crash,
// and a mid-stream departure — together. The example shows how the pieces
// compose: one fault plan carrying all three, the departure repaired by the
// appendix deletion at a slot barrier while the stream flows, loss cascading
// through the simulator, and the MDC layer turning stalls into graceful
// quality loss.
package main

import (
	"fmt"
	"log"

	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/mdc"
	"streamcast/internal/multitree"
	"streamcast/internal/spec"
)

func main() {
	const (
		n         = 50
		d         = 4
		rounds    = 8
		lossRate  = 0.01
		leaveSlot = 12
		crashSlot = 14
	)

	// A plan-free probe build resolves the topology the victims are picked
	// from: the root children of T_0 and T_1, interior nodes both.
	sc := spec.MultiTreeScenario(n, d, multitree.Greedy, core.Live)
	probe, err := spec.Build(sc)
	if err != nil {
		log.Fatal(err)
	}
	trees := probe.Scheme.(*multitree.Scheme).Tree
	leaver, crashed := trees.Trees[0][0], trees.Trees[1][0]
	sc.Packets = rounds * d
	sc.Churn = &faults.Churn{Kind: faults.ChurnPlan}

	// A plan names a leaver by member name; the live family names its
	// initial members by the static tree's ids.
	leaverName := multitree.MemberName(leaver)

	// One plan: 1% random loss, the crash, and — mid-stream churn — the
	// interior node of T_0 leaving at slot 12. The leave is a real deletion:
	// replacements are swapped into its d interior positions between two
	// slots, within the paper's d²+d bound.
	run, err := spec.BuildWithPlan(sc, &faults.Plan{
		Seed: 7,
		Rules: []faults.Rule{
			{Kind: faults.Loss, From: faults.Any, To: faults.Any, Rate: lossRate, End: faults.Forever},
			{Kind: faults.Crash, Node: crashed, Begin: crashSlot, End: faults.Forever},
		},
		Churn: []faults.ChurnEvent{{At: leaveSlot, Leave: true, Name: leaverName}},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := run.Execute(nil)
	if err != nil {
		log.Fatal(err)
	}

	// Statistics range over the members still live and up at the end: the id
	// space also holds padding positions and the departed node, and the
	// crashed node plays nothing.
	cells := run.Opt.Arrivals // kept by every live-churn run
	totalHiccups, affected, survivors := 0, 0, 0
	var qualitySum float64
	worst := 1.0
	for _, m := range run.Scheme.(core.DynamicScheme).Members() {
		if m.Node == crashed {
			continue
		}
		survivors++
		h := cells.Hiccups(m.Node, res.StartDelay[m.Node])
		totalHiccups += h
		if h > 0 {
			affected++
		}
		q := mdc.MeanQuality(mdc.RoundQuality(res, cells, m.Node, d, res.StartDelay[m.Node]))
		qualitySum += q
		worst = min(worst, q)
	}
	sum := run.Live.Summary()

	fmt.Printf("swarm of %d nodes, d=%d trees, %d%% loss + interior crash + mid-stream leave\n",
		n, d, int(lossRate*100))
	fmt.Printf("the leave cost %d position swaps (bound d²+d = %d)\n", sum.TotalSwaps, sum.Bound)
	fmt.Printf("without MDC: %d of %d survivors suffer %d playback hiccups in total\n",
		affected, survivors, totalHiccups)
	fmt.Printf("with MDC over the %d interior-disjoint trees:\n", d)
	fmt.Printf("  mean playback quality: %.3f\n", qualitySum/float64(survivors))
	fmt.Printf("  worst node quality:    %.3f (interior-disjointness floors a crash at %.2f)\n",
		worst, float64(d-1)/float64(d))
}
