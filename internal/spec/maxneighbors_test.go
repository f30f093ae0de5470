package spec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
)

// maxNeighborsParams are, per family, the parameter sets the walk contract
// test builds: N = 1 (randreg's minimum, 4, where it refuses fewer), N = d,
// a gossip mesh whose node 7 adopts the source twice (seed 8),
// multi-tree N not a multiple of d (so the trees hold dummies), and the
// single, grouped and chained cubes around a power of two and at 1000.
func maxNeighborsParams() map[string][]string {
	out := map[string][]string{
		"chain":   {"n=1", "n=2", "n=3", "n=100"},
		"cluster": {"k=1 n=1 d=3", "k=4 n=3 d=3", "k=4 D=3 n=20 d=2 construction=structured", "k=3 n=7 d=1 intra=hypercube", "k=5 n=40 d=2 intra=hypercube"},
		"gossip":  {"n=1 d=3", "n=3 d=3", "n=8 d=3 seed=8", "n=100 d=3 degree=5", "n=50 d=2 degree=8 seed=9"},
		"randreg": {"n=4 degree=3", "n=5 degree=2 mode=pull", "n=100 degree=3 mode=push", "n=100 degree=4"},
	}
	for d := 2; d <= 4; d++ { // both tree families need d ≥ 2
		for _, n := range []int{1, d, 2*d + 1, 100, 1000} {
			out["singletree"] = append(out["singletree"], fmt.Sprintf("n=%d d=%d", n, d))
			for _, c := range []string{"greedy", "structured"} {
				p := fmt.Sprintf("n=%d d=%d construction=%s", n, d, c)
				out["multitree"] = append(out["multitree"], p)
				out["mdc"] = append(out["mdc"], p)
			}
		}
	}
	for d := 1; d <= 3; d++ {
		ns := []int{1, d, 1000}
		for k := 1; k <= 10; k++ {
			ns = append(ns, d*(1<<k-1), d*(1<<k-1)+1, 1<<k-1, 1<<k)
		}
		for _, n := range ns {
			out["hypercube"] = append(out["hypercube"], fmt.Sprintf("n=%d d=%d", n, d))
		}
	}
	return out
}

// walkContract fails unless s's walk keeps the core.Scheme contract: listed
// ids ascending within 1..N, each once; no list holding its own id, a
// duplicate or an id outside 0..N; every receiver–receiver edge listed at
// both ends; core.MaxNeighbors the longest list's length, which it returns.
func walkContract(t *testing.T, name string, s core.Scheme) int {
	t.Helper()
	n := s.NumReceivers()
	lists := map[core.NodeID][]core.NodeID{}
	last, worst := core.SourceID, 0
	s.EachNeighbors(func(id core.NodeID, list []core.NodeID) {
		if id <= last || int(id) > n {
			t.Fatalf("%s: the walk yields node %d after node %d; want ascending ids in 1..%d", name, id, last, n)
		}
		last = id
		for i, other := range list {
			if other == id || other < 0 || int(other) > n || slices.Contains(list[:i], other) {
				t.Fatalf("%s: node %d lists %v: %d is itself, outside 0..%d or listed twice", name, id, list, other, n)
			}
		}
		lists[id] = slices.Clone(list)
		worst = max(worst, len(list))
	})
	for id, list := range lists {
		for _, other := range list {
			if other != core.SourceID && !slices.Contains(lists[other], id) {
				t.Fatalf("%s: node %d lists %d, whose list %v does not list it", name, id, other, lists[other])
			}
		}
	}
	if got := core.MaxNeighbors(s); got != worst {
		t.Fatalf("%s: core.MaxNeighbors = %d, the walk's longest list has %d", name, got, worst)
	}
	return worst
}

// TestNeighborWalkContract holds every registered family at its edge sizes to
// walkContract and, where the static check audits the mesh, the check
// report's MaxNeighbors to the walk's longest list; a live multi-tree keeps
// the contract through churn.
func TestNeighborWalkContract(t *testing.T) {
	t.Run("live-churn", liveWalkAfterChurn)
	params := maxNeighborsParams()
	checked := 0
	for _, f := range Families() {
		sets := params[f.Name]
		if len(sets) == 0 {
			t.Errorf("%s: no parameter sets; add the family to maxNeighborsParams", f.Name)
		}
		for _, set := range sets {
			sc := &Scenario{Scheme: f.Name}
			for _, kv := range strings.Fields(set) {
				k, v, _ := strings.Cut(kv, "=")
				sc.setParam(k, v)
			}
			name := f.Name + " " + set
			run, err := Build(sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			worst := walkContract(t, name, run.Scheme)
			if run.CheckOpt == nil {
				continue
			}
			rep, err := run.Preflight()
			if err != nil {
				t.Fatalf("%s: check: %v", name, err)
			}
			if rep.MaxNeighbors != worst {
				t.Errorf("%s: the walk's longest list has %d, check report reads %d", name, worst, rep.MaxNeighbors)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("only %d runs compared against the check report", checked)
	}
}

// liveWalkAfterChurn: a live multi-tree keeps the walk contract after every
// op of seeded join/leave sequences under the eager and the lazy policy,
// across level grows and shrinks.
func liveWalkAfterChurn(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		for d := 2; d <= 4; d++ {
			s, err := multitree.NewLiveScheme(10, d, lazy, core.Live)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(d)))
			joined := 0
			for i := 0; i < 300; i++ {
				// Grow for the first half, then shrink, so the id space
				// crosses levels both ways.
				var op core.TopologyOp
				if members := s.Members(); len(members) > 1 && (i >= 150 && rng.Intn(4) != 0 || i < 150 && rng.Intn(3) == 0) {
					op = core.TopologyOp{Leave: true, Name: members[rng.Intn(len(members))].Name}
				} else {
					joined++
					op = core.TopologyOp{Name: fmt.Sprintf("join-%d", joined)}
				}
				if _, err := s.Apply(core.Slot(i), op); err != nil {
					t.Fatal(err)
				}
				walkContract(t, fmt.Sprintf("lazy=%v d=%d after op %d (%+v, %d members)", lazy, d, i, op, len(s.Members())), s)
			}
		}
	}
}
