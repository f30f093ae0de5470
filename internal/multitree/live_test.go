package multitree

import (
	"reflect"
	"testing"

	"streamcast/internal/core"
)

// copyTxs snapshots a Transmissions result (LiveScheme reuses its output
// buffer across calls).
func copyTxs(txs []core.Transmission) []core.Transmission {
	if len(txs) == 0 {
		return nil
	}
	out := make([]core.Transmission, len(txs))
	copy(out, txs)
	return out
}

// TestLiveSchemeMatchesStatic: before any churn the live scheme must emit
// exactly the static scheme's schedule — the initial family shares the
// greedy construction's member ids, so the transmissions agree edge for
// edge, slot for slot, in emission order.
func TestLiveSchemeMatchesStatic(t *testing.T) {
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
		for _, tc := range []struct{ n, d int }{{10, 2}, {25, 3}, {7, 2}} {
			m, err := New(tc.n, tc.d, Greedy)
			if err != nil {
				t.Fatal(err)
			}
			st := NewScheme(m, mode)
			ls, err := NewLiveScheme(tc.n, tc.d, false, mode)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ls.SourceCapacity(), st.SourceCapacity(); got != want {
				t.Fatalf("n=%d d=%d %s: SourceCapacity %d, static %d", tc.n, tc.d, mode, got, want)
			}
			// The live steady state ranges over dummy positions too, so it is
			// no earlier than the static schedule's.
			horizon := ls.SteadyState() + core.Slot(4*tc.d)
			for slot := core.Slot(0); slot < horizon; slot++ {
				got := copyTxs(ls.Transmissions(slot))
				want := st.Transmissions(slot)
				if len(want) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d d=%d %s slot %d: live %v, static %v", tc.n, tc.d, mode, slot, got, want)
				}
			}
		}
	}
}

// TestLiveSchemeApplyOps drives the DynamicScheme interface end to end:
// stats with resolved node ids and leave direction, membership reflecting
// each op, a failing op changing nothing, and invariants holding throughout.
func TestLiveSchemeApplyOps(t *testing.T) {
	ls, err := NewLiveScheme(10, 2, false, core.Live)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ls.Members()); got != 10 {
		t.Fatalf("%d initial members, want 10", got)
	}
	byName := func() map[string]core.NodeID {
		out := make(map[string]core.NodeID)
		for _, m := range ls.Members() {
			out[m.Name] = m.Node
		}
		return out
	}

	join, err := ls.Apply(3, core.TopologyOp{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if join.Leave || join.Node < 1 || byName()["alice"] != join.Node {
		t.Fatalf("join stat %+v, members %v", join, byName())
	}
	gone := byName()["node-4"]
	leave, err := ls.Apply(3, core.TopologyOp{Leave: true, Name: "node-4"})
	if err != nil {
		t.Fatal(err)
	}
	if !leave.Leave || leave.Node != gone {
		t.Fatalf("leave stat %+v, want the leave of id %d", leave, gone)
	}
	members := byName()
	if len(members) != 10 || members["alice"] != join.Node {
		t.Fatalf("membership after ops: %v", members)
	}
	if _, ok := members["node-4"]; ok {
		t.Fatalf("node-4 still a member: %v", members)
	}
	if err := ls.Validate(); err != nil {
		t.Fatalf("invariants after ops: %v", err)
	}

	// A failing op names the member, not the slot (the churn source and the
	// engine add what they know), and changes no membership.
	const want = `multitree: member "no-such-member" not present`
	if _, err := ls.Apply(5, core.TopologyOp{Leave: true, Name: "no-such-member"}); err == nil || err.Error() != want {
		t.Fatalf("leave of unknown member: %v", err)
	}
	if got := byName(); !reflect.DeepEqual(got, members) {
		t.Fatalf("membership after a failed op: %v, want %v", got, members)
	}
}

// TestLiveSchemeGrowRebuild fills every dummy slot and forces a level grow:
// the positional table must be rebuilt for the larger padding and the
// schedule must stay valid.
func TestLiveSchemeGrowRebuild(t *testing.T) {
	ls, err := NewLiveScheme(10, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	np0 := ls.NumReceivers()
	dummies := np0 - ls.m.N
	var slot core.Slot = 1
	for j := 0; j <= dummies; j++ {
		name := "joiner-" + string(rune('a'+j))
		if _, err := ls.Apply(slot, core.TopologyOp{Name: name}); err != nil {
			t.Fatal(err)
		}
		if j == dummies && ls.m.NP == np0 {
			t.Fatal("join past the dummy pool did not grow the trees")
		}
		slot++
	}
	if got := ls.NumReceivers(); got != np0+ls.m.D {
		t.Fatalf("id space %d after grow, want %d", got, np0+ls.m.D)
	}
	if err := ls.Validate(); err != nil {
		t.Fatalf("invariants after grow: %v", err)
	}
	// Every live member still receives: one full period past steady state
	// must deliver to every real member at least once per tree round.
	seen := make(map[core.NodeID]int)
	for slot := ls.SteadyState(); slot < ls.SteadyState()+core.Slot(ls.m.D); slot++ {
		for _, tx := range ls.Transmissions(slot) {
			seen[tx.To]++
		}
	}
	for _, m := range ls.Members() {
		if seen[m.Node] == 0 {
			t.Errorf("member %s (id %d) receives nothing in a steady-state period", m.Name, m.Node)
		}
	}
}

// TestLiveSchemeLevelOscillationMatchesFresh drives the membership up and
// down across a level boundary several times: the tables kept across the
// shrinks must schedule every epoch exactly as a scheme built from scratch
// over the same family does.
func TestLiveSchemeLevelOscillationMatchesFresh(t *testing.T) {
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live} {
		ls, err := NewLiveScheme(6, 2, false, mode) // full: the next join grows a level
		if err != nil {
			t.Fatal(err)
		}
		grew, shrunk := 0, 0
		for i := 0; i < 8; i++ {
			op := core.TopologyOp{Name: "osc-" + string(rune('a'+i))}
			if i%2 == 1 {
				op = core.TopologyOp{Leave: true, Name: "osc-" + string(rune('a'+i-1))}
			}
			np := ls.m.NP
			if _, err := ls.Apply(core.Slot(i), op); err != nil {
				t.Fatal(err)
			}
			if ls.m.NP > np {
				grew++
			}
			if ls.m.NP < np {
				shrunk++
			}
			fresh := &LiveScheme{m: ls.m, sched: NewScheme(ls.m, mode)}
			if ls.SteadyState() != fresh.SteadyState() {
				t.Fatalf("%s op %d: steady state %d, fresh scheme %d", mode, i, ls.SteadyState(), fresh.SteadyState())
			}
			for slot := core.Slot(0); slot < fresh.SteadyState()+4; slot++ {
				want := copyTxs(fresh.Transmissions(slot))
				if got := ls.Transmissions(slot); !reflect.DeepEqual(copyTxs(got), want) {
					t.Fatalf("%s op %d slot %d: %v, fresh scheme %v", mode, i, slot, got, want)
				}
			}
		}
		if grew < 2 || shrunk < 2 {
			t.Fatalf("%s: %d grows and %d shrinks; the oscillation never crossed a level twice", mode, grew, shrunk)
		}
	}
}

// TestNeighborsOrderIsStable: the static and the live mesh list every node's
// neighbors in construction order (parent, then children, tree by tree), so
// two calls return identical slices — they used to come out in
// map-iteration order — no list repeats a node, and an unchurned live scheme
// lists exactly what the static family it was built from lists.
func TestNeighborsOrderIsStable(t *testing.T) {
	noRepeats := func(name string, nb map[core.NodeID][]core.NodeID) {
		t.Helper()
		for id, list := range nb {
			seen := map[core.NodeID]bool{}
			for _, o := range list {
				if seen[o] {
					t.Fatalf("%s: node %d lists %d twice: %v", name, id, o, list)
				}
				seen[o] = true
			}
		}
	}
	for _, d := range []int{2, 3, 5} {
		for _, c := range []Construction{Structured, Greedy} {
			m, err := New(77, d, c)
			if err != nil {
				t.Fatal(err)
			}
			nb := m.Neighbors()
			if !reflect.DeepEqual(nb, m.Neighbors()) {
				t.Fatalf("%s d=%d: two Neighbors() calls disagree", c, d)
			}
			noRepeats(c.String(), nb)
		}
		ls, err := NewLiveScheme(77, d, false, core.Live)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(77, d, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ls.Neighbors(), m.Neighbors()) {
			t.Fatalf("d=%d: unchurned live mesh differs from the static greedy mesh", d)
		}
		for _, op := range []core.TopologyOp{
			{Name: "alice"}, {Leave: true, Name: "node-4"}, {Name: "bob"}, {Leave: true, Name: "node-30"},
		} {
			if _, err := ls.Apply(3, op); err != nil {
				t.Fatal(err)
			}
		}
		nb := ls.Neighbors()
		if len(nb) != len(ls.Members()) {
			t.Fatalf("d=%d: %d lists for %d live members", d, len(nb), len(ls.Members()))
		}
		if !reflect.DeepEqual(nb, ls.Neighbors()) {
			t.Fatalf("d=%d: two live Neighbors() calls disagree after churn", d)
		}
		noRepeats("live", nb)
	}
}

// TestApplyOpsPatchesInPlace: an op that leaves the padded size alone
// patches the firing lists where it moved an occupant and allocates
// nothing, so it never rebuilds them.
func TestApplyOpsPatchesInPlace(t *testing.T) {
	for d := 2; d <= 4; d++ {
		ls, err := NewLiveScheme(10*d-1, d, false, core.Live) // one dummy: a join revives it
		if err != nil {
			t.Fatal(err)
		}
		np := ls.m.NP
		allocs := testing.AllocsPerRun(50, func() {
			for _, op := range []core.TopologyOp{{Name: "x"}, {Leave: true, Name: "x"}} {
				if _, err := ls.Apply(0, op); err != nil {
					t.Fatal(err)
				}
			}
		})
		if ls.m.NP != np {
			t.Fatalf("d=%d: NP moved %d → %d", d, np, ls.m.NP)
		}
		if allocs > 0 {
			t.Errorf("d=%d: a join and a leave allocate %v times, want none", d, allocs)
		}
	}
}
