package experiments

import (
	"fmt"

	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/spec"
)

// FaultDegradation measures how gracefully the multi-tree scheme degrades
// under seeded fault plans: packet loss at several rates, a permanent crash
// of an interior node, deterministic link delay, and membership churn with
// background loss (the plan's joins and leaves applied live, at their slot
// barriers, and the statistics taken over the members live at the end).
// Every scenario replays the same deterministic plan machinery the test
// suite pins (internal/faults), so the numbers are reproducible bit for bit
// from the seed. The clean row anchors the comparison; "inflation" is the
// worst startup delay of still-complete nodes relative to that clean run.
func FaultDegradation(n, d int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "faults",
		Title: fmt.Sprintf("degradation under injected faults (multi-tree, N=%d, d=%d, seed=%d)", n, d, seed),
		Columns: []string{
			"scenario", "missing", "complete nodes", "drops",
			"worst start", "avg start", "worst buffer", "delay inflation",
		},
	}

	scenarios := []struct {
		name  string
		churn bool
		plan  func(m *multitree.MultiTree) *faults.Plan
	}{
		{"clean", false, func(*multitree.MultiTree) *faults.Plan { return &faults.Plan{Seed: seed} }},
		{"loss 1%", false, func(*multitree.MultiTree) *faults.Plan {
			return &faults.Plan{Seed: seed, Rules: []faults.Rule{
				{Kind: faults.Loss, From: faults.Any, To: faults.Any, Rate: 0.01, End: faults.Forever},
			}}
		}},
		{"loss 5%", false, func(*multitree.MultiTree) *faults.Plan {
			return &faults.Plan{Seed: seed, Rules: []faults.Rule{
				{Kind: faults.Loss, From: faults.Any, To: faults.Any, Rate: 0.05, End: faults.Forever},
			}}
		}},
		{"loss 15%", false, func(*multitree.MultiTree) *faults.Plan {
			return &faults.Plan{Seed: seed, Rules: []faults.Rule{
				{Kind: faults.Loss, From: faults.Any, To: faults.Any, Rate: 0.15, End: faults.Forever},
			}}
		}},
		{"interior crash", false, func(m *multitree.MultiTree) *faults.Plan {
			// The root child of tree 0: a whole subtree loses its feed.
			return &faults.Plan{Seed: seed, Rules: []faults.Rule{
				{Kind: faults.Crash, Node: m.Trees[0][0], Begin: core.Slot(d), End: faults.Forever},
			}}
		}},
		{"delay +2 (30% of sends)", false, func(*multitree.MultiTree) *faults.Plan {
			return &faults.Plan{Seed: seed, Rules: []faults.Rule{
				{Kind: faults.Delay, From: faults.Any, To: faults.Any, Extra: 2, Rate: 0.3, End: faults.Forever},
			}}
		}},
		{"churn + loss 5%", true, func(*multitree.MultiTree) *faults.Plan {
			p := &faults.Plan{Seed: seed, Rules: []faults.Rule{
				{Kind: faults.Loss, From: faults.Any, To: faults.Any, Rate: 0.05, End: faults.Forever},
			}}
			for i := 0; i < 6; i++ {
				p.Churn = append(p.Churn,
					faults.ChurnEvent{At: core.Slot(2 * i), Name: fmt.Sprintf("late-%d", i)},
					faults.ChurnEvent{At: core.Slot(2*i + 1), Leave: true, Name: faults.AnyName},
				)
			}
			return p
		}},
	}

	// The crash plan needs the built tree to pick its victim, so a plan-free
	// probe build resolves the topology first.
	probe, err := analyticMultiTree(n, d, multitree.Greedy)
	if err != nil {
		return nil, err
	}
	var cleanWorst core.Slot
	for _, sc := range scenarios {
		// Every variant is the same registry scenario — a multi-tree at its
		// family-default window (4d packets, h·d+4d+2 slack) — under a
		// different programmatic fault plan; the churn plan's events fire
		// live (kind=plan).
		base := spec.MultiTreeScenario(n, d, multitree.Greedy, core.PreRecorded)
		if sc.churn {
			base.Churn = &faults.Churn{Kind: faults.ChurnPlan}
		}
		run, err := spec.BuildWithPlan(base, sc.plan(probe.Tree))
		if err != nil {
			return nil, err
		}
		met := obs.NewMetrics()
		res, err := simulateRun(run, met)
		if err != nil {
			return nil, fmt.Errorf("faults: %s: %v", sc.name, err)
		}

		live := survivors(run)
		missing, complete := 0, 0
		var worst core.Slot
		var sum float64
		for _, id := range live {
			missing += res.Missing[id]
			if res.Missing[id] > 0 {
				continue
			}
			complete++
			if res.StartDelay[id] > worst {
				worst = res.StartDelay[id]
			}
			sum += float64(res.StartDelay[id])
		}
		drops := 0
		for id := 0; id < met.NodeCount(); id++ {
			drops += met.Node(core.NodeID(id)).Drops
		}
		avg := 0.0
		if complete > 0 {
			avg = sum / float64(complete)
		}
		if sc.name == "clean" {
			cleanWorst = worst
		}
		inflation := 0.0
		if cleanWorst > 0 {
			inflation = float64(worst) / float64(cleanWorst)
		}
		t.AddRow(sc.name, missing, fmt.Sprintf("%d/%d", complete, len(live)),
			drops, int(worst), avg, res.WorstBuffer(), inflation)
	}
	return t, nil
}
