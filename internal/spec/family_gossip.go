package spec

import (
	"fmt"

	"streamcast/internal/core"
	"streamcast/internal/gossip"
)

// parseStrategy maps the enum word to the gossip constant; the registry
// has already validated the value.
func parseStrategy(v string) gossip.Strategy {
	switch v {
	case "pull-newest":
		return gossip.PullNewest
	case "pull-random":
		return gossip.PullRandom
	default:
		return gossip.PullOldest
	}
}

func init() {
	register(&Family{
		Name: "gossip",
		Doc:  "unstructured pull mesh (related-work baseline); best-effort, always live",
		Params: []Param{
			{Name: "n", Kind: Int, Def: "100", Min: 1, Doc: "number of receivers"},
			{Name: "d", Kind: Int, Def: "3", Min: 1, Doc: "source capacity d"},
			{Name: "degree", Kind: Int, Def: "5", Min: 1, Doc: "neighbor-set size"},
			{Name: "strategy", Kind: Enum, Def: "pull-oldest",
				Enum: []string{"pull-oldest", "pull-newest", "pull-random"},
				Doc:  "which missing packet a node asks for"},
			{Name: "seed", Kind: Int64, Def: "1", Doc: "mesh and pull-choice seed"},
		},
		// The schedule is generated lazily from simulation state: there is
		// no closed-form bound for internal/check to verify, and missing
		// packets are expected (best effort).
		Caps:          Capabilities{BestEffort: true},
		ForcedMode:    core.Live,
		HasForcedMode: true,
		defaultPackets: func(v Values) core.Packet {
			return core.Packet(4 * v.Int("d"))
		},
		build: func(in buildInput) (*buildOutput, error) {
			n, d := in.Values.Int("n"), in.Values.Int("d")
			g, err := gossip.New(n, d, in.Values.Int("degree"),
				parseStrategy(in.Values.Str("strategy")), in.Values.Int64("seed"))
			if err != nil {
				return nil, err
			}
			out := &buildOutput{Scheme: g, Extra: core.Slot(12*n/d + 100)}
			out.Opt.Mode = core.Live
			out.Opt.AllowIncomplete = true
			return out, nil
		},
	})
}

// GossipScenario is a convenience constructor for gossip sweeps.
func GossipScenario(n, d, degree int, strategy gossip.Strategy, seed int64) *Scenario {
	sc := &Scenario{Scheme: "gossip"}
	sc.setParam("n", fmt.Sprint(n))
	sc.setParam("d", fmt.Sprint(d))
	sc.setParam("degree", fmt.Sprint(degree))
	sc.setParam("strategy", strategy.String())
	sc.setParam("seed", fmt.Sprint(seed))
	return sc
}
