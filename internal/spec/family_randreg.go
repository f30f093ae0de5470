package spec

import (
	"fmt"
	"math/bits"

	"streamcast/internal/core"
	"streamcast/internal/randreg"
)

func init() {
	register(&Family{
		Name: "randreg",
		Doc:  "seeded random d-regular digraph; latin (periodic) or pull/push gossip schedules",
		Params: []Param{
			{Name: "n", Kind: Int, Def: "100", Min: 4, Doc: "number of receivers"},
			{Name: "degree", Kind: Int, Def: "3", Min: 2, Doc: "in- and out-degree of every node"},
			{Name: "mode", Kind: Enum, Def: "latin",
				Enum: []string{"latin", "pull", "push"},
				Doc:  "schedule over the digraph: latin is periodic, pull/push are gossip"},
			{Name: "seed", Kind: Int64, Def: "1", Doc: "digraph and protocol seed"},
		},
		// All modes are probabilistic constructions, so delivery is best
		// effort — there is no closed-form static bound for internal/check.
		Caps:          Capabilities{BestEffort: true},
		ForcedMode:    core.Live,
		HasForcedMode: true,
		defaultPackets: func(v Values) core.Packet {
			return core.Packet(4 * v.Int("degree"))
		},
		build: func(in buildInput) (*buildOutput, error) {
			n, degree := in.Values.Int("n"), in.Values.Int("degree")
			mode, err := randreg.ParseMode(in.Values.Str("mode"))
			if err != nil {
				return nil, err
			}
			s, err := randreg.New(n, degree, mode, in.Values.Int64("seed"))
			if err != nil {
				return nil, err
			}
			out := &buildOutput{Scheme: s}
			if mode == randreg.Latin {
				// Past the largest edge delay every edge fires each period;
				// a couple of extra periods let the tail packets land.
				out.Extra = s.MaxDelay() + core.Slot(2*degree+16)
			} else {
				// Gossip dissemination of one packet takes O(log n) rounds
				// with high probability; the slack covers the in-order
				// pipeline's ramp-up.
				out.Extra = core.Slot(6*degree*bits.Len(uint(n)) + 60)
			}
			out.Opt.Mode = core.Live
			out.Opt.AllowIncomplete = true
			return out, nil
		},
	})
}

// RandRegScenario is a convenience constructor for randreg sweeps.
func RandRegScenario(n, degree int, mode string, seed int64) *Scenario {
	sc := &Scenario{Scheme: "randreg"}
	sc.setParam("n", fmt.Sprint(n))
	sc.setParam("degree", fmt.Sprint(degree))
	sc.setParam("mode", mode)
	sc.setParam("seed", fmt.Sprint(seed))
	return sc
}
