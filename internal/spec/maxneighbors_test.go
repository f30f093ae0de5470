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

// mapMaxNeighbors is the definition core.MaxNeighbors promises: the length of
// the longest list in the Neighbors() map.
func mapMaxNeighbors(s core.Scheme) int {
	worst := 0
	for _, l := range s.Neighbors() {
		worst = max(worst, len(l))
	}
	return worst
}

// maxNeighborsParams are, per family, the parameter sets the differential
// test builds: N = 1 (randreg's minimum, 4, where it refuses fewer), N = d,
// multi-tree N not a multiple of d (so the trees hold dummies), and the
// single, grouped and chained cubes around a power of two and at 1000.
func maxNeighborsParams() map[string][]string {
	out := map[string][]string{
		"chain":   {"n=1", "n=2", "n=3", "n=100"},
		"cluster": {"k=1 n=1 d=3", "k=4 n=3 d=3", "k=4 D=3 n=20 d=2 construction=structured", "k=3 n=7 d=1 intra=hypercube", "k=5 n=40 d=2 intra=hypercube"},
		"gossip":  {"n=1 d=3", "n=3 d=3", "n=100 d=3 degree=5", "n=50 d=2 degree=8 seed=9"},
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

// walkMatchesMap fails unless core.EachNeighbors yields exactly the
// Neighbors() map: every listed id once, each with its list in the same
// order. A scheme without a walk is read through a second map, which may
// gather a list from a set, so its lists are compared as sets.
func walkMatchesMap(t *testing.T, name string, s core.Scheme) {
	t.Helper()
	want := s.Neighbors()
	_, walks := s.(interface {
		EachNeighbors(func(core.NodeID, []core.NodeID))
	})
	core.EachNeighbors(s, func(id core.NodeID, list []core.NodeID) {
		w, ok := want[id]
		if !ok {
			t.Fatalf("%s: the walk yields node %d, which the map does not list or the walk yielded before", name, id)
		}
		delete(want, id)
		if !walks {
			list, w = slices.Clone(list), slices.Clone(w)
			slices.Sort(list)
			slices.Sort(w)
		}
		if !slices.Equal(list, w) {
			t.Fatalf("%s: node %d: the walk yields %v, the map lists %v", name, id, list, w)
		}
	})
	if len(want) != 0 {
		t.Fatalf("%s: the walk skips %d of the nodes the map lists", name, len(want))
	}
}

// TestMaxNeighborsMatchesMap: for every registered family at its edge sizes,
// core.EachNeighbors yields the Neighbors() map, core.MaxNeighbors equals its
// longest list, and, where the static check audits the mesh, so does the
// check report's MaxNeighbors; a live multi-tree keeps both equalities
// through churn.
func TestMaxNeighborsMatchesMap(t *testing.T) {
	t.Run("live-churn", liveMaxNeighborsAfterChurn)
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
			walkMatchesMap(t, name, run.Scheme)
			got, want := core.MaxNeighbors(run.Scheme), mapMaxNeighbors(run.Scheme)
			if got != want {
				t.Errorf("%s: core.MaxNeighbors = %d, the Neighbors() map's longest list has %d", name, got, want)
			}
			if run.CheckOpt == nil {
				continue
			}
			rep, err := run.Preflight()
			if err != nil {
				t.Fatalf("%s: check: %v", name, err)
			}
			if rep.MaxNeighbors != got {
				t.Errorf("%s: core.MaxNeighbors = %d, check report reads %d", name, got, rep.MaxNeighbors)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("only %d runs compared against the check report", checked)
	}
}

// liveMaxNeighborsAfterChurn: a live multi-tree keeps its walk and
// core.MaxNeighbors equal to its Neighbors() map after every op of seeded join/leave sequences
// under the eager and the lazy policy, across level grows and shrinks.
func liveMaxNeighborsAfterChurn(t *testing.T) {
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
				walkMatchesMap(t, fmt.Sprintf("lazy=%v d=%d after op %d", lazy, d, i), s)
				if got, want := core.MaxNeighbors(s), mapMaxNeighbors(s); got != want {
					t.Fatalf("lazy=%v d=%d after op %d (%+v, %d members): core.MaxNeighbors = %d, map reads %d",
						lazy, d, i, op, len(s.Members()), got, want)
				}
			}
		}
	}
}
