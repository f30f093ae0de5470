package spec

import (
	"fmt"

	"streamcast/internal/baseline"
	"streamcast/internal/core"
)

// The baseline families carry no closed-form bound mapping, so their Check
// stays nil: Build derives the generic audit from the run's engine options.

func init() {
	register(&Family{
		Name: "chain",
		Doc:  "pipelined chain baseline: delay N, buffer 1",
		Params: []Param{
			{Name: "n", Kind: Int, Def: "100", Min: 1, Doc: "number of receivers"},
		},
		Caps: Capabilities{StaticCheck: true},
		defaultPackets: func(v Values) core.Packet {
			return 12
		},
		build: func(in buildInput) (*buildOutput, error) {
			c, err := baseline.NewChain(in.Values.Int("n"))
			if err != nil {
				return nil, err
			}
			return &buildOutput{Scheme: c, Extra: core.Slot(in.Values.Int("n") + 4)}, nil
		},
	})

	register(&Family{
		Name: "singletree",
		Doc:  "single b-ary tree baseline: interior nodes send b copies per slot",
		Params: []Param{
			{Name: "n", Kind: Int, Def: "100", Min: 1, Doc: "number of receivers"},
			{Name: "d", Kind: Int, Def: "3", Min: 1, Doc: "tree branching factor b"},
		},
		Caps: Capabilities{StaticCheck: true},
		defaultPackets: func(v Values) core.Packet {
			return core.Packet(4 * v.Int("d"))
		},
		build: func(in buildInput) (*buildOutput, error) {
			st, err := baseline.NewSingleTree(in.Values.Int("n"), in.Values.Int("d"))
			if err != nil {
				return nil, err
			}
			out := &buildOutput{Scheme: st, Extra: 40}
			out.Opt.SendCap = st.SendCap
			return out, nil
		},
	})
}

// ChainScenario is a convenience constructor for chain sweeps.
func ChainScenario(n int) *Scenario {
	sc := &Scenario{Scheme: "chain"}
	sc.setParam("n", fmt.Sprint(n))
	return sc
}

// SingleTreeScenario is a convenience constructor for single-tree sweeps.
func SingleTreeScenario(n, b int) *Scenario {
	sc := &Scenario{Scheme: "singletree"}
	sc.setParam("n", fmt.Sprint(n))
	sc.setParam("d", fmt.Sprint(b))
	return sc
}
