package spec

import (
	"fmt"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/hypercube"
)

func init() {
	register(&Family{
		Name: "hypercube",
		Doc:  "chained hypercubes (Section 3); always live",
		Params: []Param{
			{Name: "n", Kind: Int, Def: "100", Min: 1, Doc: "number of receivers"},
			{Name: "d", Kind: Int, Def: "3", Min: 1, Doc: "source capacity d (cubes per chain group)"},
		},
		Caps: Capabilities{StaticCheck: true},
		Mode: LiveOnly,
		defaultPackets: func(v Values) core.Packet {
			return core.Packet(4 * v.Int("d"))
		},
		build: func(in buildInput) (*buildOutput, error) {
			n := in.Values.Int("n")
			h, err := hypercube.New(n, in.Values.Int("d"))
			if err != nil {
				return nil, err
			}
			// Horizon slack: the longest possible cube chain is bounded by
			// (lg+1)² where lg is the cube count needed to cover N+1 nodes.
			lg := 1
			for 1<<lg < n+1 {
				lg++
			}
			chk := check.HypercubeOptions(h, in.Packets)
			return &buildOutput{Scheme: h, Extra: core.Slot((lg+1)*(lg+1) + 4), Check: &chk}, nil
		},
	})
}

// HypercubeScenario is a convenience constructor for hypercube sweeps.
func HypercubeScenario(n, d int) *Scenario {
	sc := &Scenario{Scheme: "hypercube"}
	sc.setParam("n", fmt.Sprint(n))
	sc.setParam("d", fmt.Sprint(d))
	return sc
}
