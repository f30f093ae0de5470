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
// positional live schedule, with a faults.LiveChurn source the slot engines
// consult at every barrier. Under kind "plan" the ops are the fault plan's
// join/leave events (Build has checked that the plan and the kind agree);
// the generator kinds draw their own.
func buildLiveMultiTree(in buildInput) (*buildOutput, error) {
	cs := in.Churn
	n, d := in.Values.Int("n"), in.Values.Int("d")
	dy, err := multitree.NewDynamic(n, d, cs.Lazy)
	if err != nil {
		return nil, err
	}
	ls := multitree.NewLiveScheme(dy, in.Mode)

	budget := cs.Max
	if budget == 0 {
		if cs.Kind == faults.ChurnPlan {
			for _, e := range in.Plan.Churn {
				if !e.Leave {
					budget++
				}
			}
		} else {
			budget = n
		}
	}
	// Id-space ceiling: every grow is triggered by a join and appends d
	// fresh ids, while a shrink discards its dummy ids for good — so under
	// join/leave oscillation across a level boundary the id space can gain
	// up to d ids per budgeted join.
	maxNodes := ls.NumReceivers() + budget*d + d
	lc, err := faults.NewLiveChurn(faults.LiveChurnConfig{
		Kind:     cs.Kind,
		Seed:     cs.Seed,
		Rate:     cs.Rate,
		Begin:    cs.Begin,
		End:      cs.End,
		MaxJoins: budget,
		Plan:     in.Plan,
		Bound:    multitree.SwapBound(d),
		MaxNodes: maxNodes,
	})
	if err != nil {
		return nil, err
	}
	out := &buildOutput{
		Scheme: ls,
		// The live steady state ranges over the padded positions, so it
		// replaces the static height-derived slack.
		Extra: ls.SteadyState() + core.Slot(4*d+2),
		Live:  lc,
	}
	out.Opt.Mode = in.Mode
	out.Opt.Churn = lc
	// Live churn runs degraded by construction: repair gaps cascade as real
	// losses, and a position swap can re-deliver a packet its new occupant
	// already held.
	out.Opt.AllowIncomplete = true
	out.Opt.SkipUnavailable = true
	out.Opt.AllowDuplicates = true
	return out, nil
}

func init() {
	register(&Family{
		Name:   "multitree",
		Doc:    "the paper's d interior-disjoint trees (Section 2); supports live mid-run churn",
		Params: multiTreeParams(),
		Caps:   Capabilities{StaticCheck: true, Periodic: true, LiveChurn: true},
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
			out := &buildOutput{
				Scheme: s,
				Extra:  multiTreeExtra(m, in.Values.Int("d")),
				MkCheck: func(win core.Packet) check.Options {
					return check.MultiTreeOptions(s, win)
				},
			}
			out.Opt.Mode = in.Mode
			return out, nil
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
