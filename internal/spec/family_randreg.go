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
		Caps: Capabilities{BestEffort: true},
		Mode: LiveOnly,
		defaultPackets: func(v Values) core.Packet {
			return core.Packet(4 * v.Int("degree"))
		},
		build: func(in buildInput) (*buildOutput, error) {
			n, degree := in.Values.Int("n"), in.Values.Int("degree")
			mode, err := randreg.ParseMode(in.Values.Str("mode"))
			if err != nil {
				return nil, err
			}
			g, err := randRegGraph(in)
			if err != nil {
				return nil, err
			}
			s, err := randreg.New(g, mode, in.Values.Int64("seed"))
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
			return out, nil
		},
	})
}

// randRegGraph is the digraph a randreg run schedules over: the one its
// scenario carries, held to the resolved n and degree, or else a fresh draw.
func randRegGraph(in buildInput) (*randreg.Digraph, error) {
	n, degree := in.Values.Int("n"), in.Values.Int("degree")
	if g := in.Graph; g != nil {
		if g.Nodes != n+1 || g.D != degree {
			return nil, fmt.Errorf("randreg: the scenario's digraph has %d nodes of degree %d, but n=%d degree=%d needs %d nodes of degree %d",
				g.Nodes, g.D, n, degree, n+1, degree)
		}
		return g, nil
	}
	return RandRegGraph(n, degree, in.Values.Int64("seed"))
}

// RandRegGraph draws the digraph a randreg scenario with these n, degree and
// seed runs on: a simple strongly connected degree-regular digraph on the
// source and n receivers. The draw does not read the mode, so the three
// modes of one seed run on one graph.
func RandRegGraph(n, degree int, seed int64) (*randreg.Digraph, error) {
	if n < degree {
		return nil, fmt.Errorf("randreg: n=%d receivers cannot host a simple %d-regular digraph with the source (need n >= degree)", n, degree)
	}
	return randreg.NewDigraph(n+1, degree, uint64(seed))
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

// RandRegScenarioOn is RandRegScenario over a digraph the caller already
// drew with RandRegGraph for the same seed: the run is then the one
// RandRegScenario's text gives, without drawing the graph again, so the
// three modes of one seed can share a single draw. The graph is not part of
// the scenario's text; Build refuses it when the scenario's n and degree no
// longer match it, and never writes to it.
func RandRegScenarioOn(g *randreg.Digraph, mode string, seed int64) *Scenario {
	sc := RandRegScenario(g.Nodes-1, g.D, mode, seed)
	sc.graph = g
	return sc
}
