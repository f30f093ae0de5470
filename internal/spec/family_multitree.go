package spec

import (
	"fmt"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/multitree"
)

// multiTreeParams are the parameters shared by every family built on the
// multi-tree construction (multitree itself and mdc).
func multiTreeParams() []Param {
	return []Param{
		{Name: "n", Kind: Int, Def: "100", Min: 1, Doc: "number of receivers"},
		{Name: "d", Kind: Int, Def: "3", Min: 1, Doc: "source capacity / tree degree d"},
		{Name: "construction", Kind: Enum, Def: "greedy", Enum: []string{"greedy", "structured"},
			Doc: "multi-tree construction"},
	}
}

// parseConstruction maps the enum word to the multitree constant; the
// registry has already validated the value.
func parseConstruction(v string) multitree.Construction {
	if v == "structured" {
		return multitree.Structured
	}
	return multitree.Greedy
}

// buildMultiTree constructs the static multi-tree behind the multitree and
// mdc families.
func buildMultiTree(v Values) (*multitree.MultiTree, error) {
	return multitree.New(v.Int("n"), v.Int("d"), parseConstruction(v.Str("construction")))
}

// multiTreeExtra is the family's automatic horizon slack beyond the packet
// window: tree height worth of per-hop delay plus the live-pipelining and
// warmup slack.
func multiTreeExtra(m *multitree.MultiTree, d int) core.Slot {
	return core.Slot(m.Height()*d + 4*d + 2)
}

// buildLiveMultiTree wires the live-churn run: the dynamic family under the
// positional live schedule, and the config of the faults.LiveChurn source the
// slot engines consult at every barrier, which Build completes with the
// horizon. Under kind "plan" the ops are the fault plan's join/leave events
// (Build has checked that the plan and the kind agree); the generator kinds
// draw their own.
func buildLiveMultiTree(in buildInput) (*buildOutput, error) {
	c := *in.Churn
	n, d := in.Values.Int("n"), in.Values.Int("d")
	ls, err := multitree.NewLiveScheme(n, d, c.Lazy, in.Mode)
	if err != nil {
		return nil, err
	}

	if c.Max == 0 {
		if c.Kind == faults.ChurnPlan {
			for _, e := range in.Plan.Churn {
				if !e.Leave {
					c.Max++
				}
			}
		} else {
			c.Max = n
		}
	}
	// Id-space growth: every grow is triggered by a join and appends d
	// fresh ids, while a shrink discards its dummy ids for good — so under
	// join/leave oscillation across a level boundary the id space can gain
	// up to d ids per join. The source sizes the run's ceiling to the joins
	// its horizon can draw; the budget bounds them all, and a budget whose
	// growth could pass the core.MaxArrivalCells ids a run holds is refused
	// here, before the product could overflow.
	if c.Max+1 > (core.MaxArrivalCells-ls.NumReceivers())/d {
		return nil, fmt.Errorf("a join budget of %d with up to d=%d fresh ids per join passes the %d-node id space a run can hold",
			c.Max, d, core.MaxArrivalCells)
	}
	out := &buildOutput{
		Scheme: ls,
		// The live steady state ranges over the padded positions, so it
		// replaces the static height-derived slack.
		Extra: ls.SteadyState() + core.Slot(4*d+2),
		Live: &faults.LiveChurnConfig{
			Churn:      c,
			Plan:       in.Plan,
			Bound:      multitree.SwapBound(d),
			IDs:        ls.NumReceivers(),
			IDsPerJoin: d,
		},
	}
	// Live churn runs degraded by construction: repair gaps cascade as real
	// losses.
	out.Opt.AllowIncomplete = true
	out.Opt.SkipUnavailable = true
	return out, nil
}

func init() {
	register(&Family{
		Name:   "multitree",
		Doc:    "the paper's d interior-disjoint trees (Section 2); supports live mid-run churn",
		Params: multiTreeParams(),
		Caps:   Capabilities{StaticCheck: true, LiveChurn: true},
		defaultPackets: func(v Values) core.Packet {
			return core.Packet(4 * v.Int("d"))
		},
		build: func(in buildInput) (*buildOutput, error) {
			if in.Churn != nil {
				return buildLiveMultiTree(in)
			}
			m, err := buildMultiTree(in.Values)
			if err != nil {
				return nil, err
			}
			s := multitree.NewScheme(m, in.Mode)
			chk := check.MultiTreeOptions(s, in.Packets)
			return &buildOutput{Scheme: s, Extra: multiTreeExtra(m, in.Values.Int("d")), Check: &chk}, nil
		},
	})
}

// MultiTreeScenario is a convenience constructor for the common sweep
// shape: N receivers, degree d, a construction, a stream mode.
func MultiTreeScenario(n, d int, c multitree.Construction, mode core.StreamMode) *Scenario {
	sc := &Scenario{Scheme: "multitree", Mode: modeWord(mode)}
	sc.setParam("n", fmt.Sprint(n))
	sc.setParam("d", fmt.Sprint(d))
	sc.setParam("construction", c.String())
	return sc
}
