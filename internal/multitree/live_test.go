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
// exactly the static scheme's schedule — the initial Dynamic shares the
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
			dy, err := NewDynamic(tc.n, tc.d, false)
			if err != nil {
				t.Fatal(err)
			}
			ls := NewLiveScheme(dy, mode)
			if got, want := ls.Period(), st.Period(); got != want {
				t.Fatalf("n=%d d=%d %s: Period %d, static %d", tc.n, tc.d, mode, got, want)
			}
			if got, want := ls.SourceCapacity(), st.SourceCapacity(); got != want {
				t.Fatalf("n=%d d=%d %s: SourceCapacity %d, static %d", tc.n, tc.d, mode, got, want)
			}
			// The live steady state ranges over dummy positions too, so it can
			// only be later than the static bound, never earlier.
			if ls.SteadyState() < st.SteadyState() {
				t.Fatalf("n=%d d=%d %s: live steady %d before static steady %d",
					tc.n, tc.d, mode, ls.SteadyState(), st.SteadyState())
			}
			horizon := ls.SteadyState() + 4*ls.Period()
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
// per-op epoch bumps, stats with resolved node ids and leave direction,
// membership reflecting the ops, and invariants holding throughout.
func TestLiveSchemeApplyOps(t *testing.T) {
	dy, err := NewDynamic(10, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLiveScheme(dy, core.Live)
	if ls.Epoch() != 0 {
		t.Fatalf("fresh scheme at epoch %d, want 0", ls.Epoch())
	}
	if got := len(ls.Members()); got != 10 {
		t.Fatalf("%d initial members, want 10", got)
	}

	stats, err := ls.ApplyOps(3, []core.TopologyOp{
		{Name: "alice"},
		{Leave: true, Name: "node-4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("%d stats, want 2", len(stats))
	}
	if stats[0].Leave || stats[0].Node < 1 {
		t.Fatalf("join stat: %+v", stats[0])
	}
	if !stats[1].Leave {
		t.Fatalf("leave stat not marked: %+v", stats[1])
	}
	if stats[0].Epoch != 1 || stats[1].Epoch != 2 || ls.Epoch() != 2 {
		t.Fatalf("epochs %d,%d scheme %d, want 1,2,2", stats[0].Epoch, stats[1].Epoch, ls.Epoch())
	}
	names := make(map[string]bool)
	for _, m := range ls.Members() {
		names[m.Name] = true
	}
	if !names["alice"] || names["node-4"] {
		t.Fatalf("membership after ops: %v", names)
	}
	if err := ls.Validate(); err != nil {
		t.Fatalf("invariants after ops: %v", err)
	}

	// A failing op surfaces the slot and stops the batch after the ops that
	// did apply.
	stats, err = ls.ApplyOps(5, []core.TopologyOp{
		{Name: "bob"},
		{Leave: true, Name: "no-such-member"},
	})
	if err == nil {
		t.Fatal("leave of unknown member accepted")
	}
	if len(stats) != 1 || stats[0].Leave {
		t.Fatalf("partial batch stats: %+v", stats)
	}
	if ls.Epoch() != 3 {
		t.Fatalf("epoch %d after partial batch, want 3", ls.Epoch())
	}
}

// TestLiveSchemeGrowRebuild fills every dummy slot and forces a level grow:
// the positional table must be rebuilt for the larger padding and the
// schedule must stay valid (compile parity is checked separately).
func TestLiveSchemeGrowRebuild(t *testing.T) {
	dy, err := NewDynamic(10, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLiveScheme(dy, core.PreRecorded)
	np0 := ls.NumReceivers()
	dummies := np0 - dy.N()
	var slot core.Slot = 1
	for j := 0; j <= dummies; j++ {
		name := "joiner-" + string(rune('a'+j))
		stats, err := ls.ApplyOps(slot, []core.TopologyOp{{Name: name}})
		if err != nil {
			t.Fatal(err)
		}
		if j == dummies && !stats[0].Grew {
			t.Fatal("join past the dummy pool did not grow the trees")
		}
		slot++
	}
	if got := ls.NumReceivers(); got != np0+dy.Degree() {
		t.Fatalf("id space %d after grow, want %d", got, np0+dy.Degree())
	}
	if err := ls.Validate(); err != nil {
		t.Fatalf("invariants after grow: %v", err)
	}
	// Every live member still receives: one full period past steady state
	// must deliver to every real member at least once per tree round.
	seen := make(map[core.NodeID]int)
	for slot := ls.SteadyState(); slot < ls.SteadyState()+ls.Period(); slot++ {
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

// TestLiveSchemeCompileParityAfterChurn: a compiled snapshot of a churned
// epoch must replay exactly the interpreted schedule. This is the property
// the slot engine's per-epoch recompilation relies on.
func TestLiveSchemeCompileParityAfterChurn(t *testing.T) {
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live} {
		dy, err := NewDynamic(13, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		ls := NewLiveScheme(dy, mode)
		ops := []core.TopologyOp{
			{Name: "x1"}, {Leave: true, Name: "node-5"},
			{Name: "x2"}, {Name: "x3"}, {Leave: true, Name: "node-11"},
		}
		for i, op := range ops {
			if _, err := ls.ApplyOps(core.Slot(i), []core.TopologyOp{op}); err != nil {
				t.Fatal(err)
			}
		}
		horizon := ls.SteadyState() + 6*ls.Period()
		c := core.CompileForRun(ls, horizon)
		if c == nil {
			t.Fatalf("%s: churned live scheme did not compile at horizon %d", mode, horizon)
		}
		for slot := core.Slot(0); slot < horizon; slot++ {
			want := copyTxs(ls.Transmissions(slot))
			got := copyTxs(c.Transmissions(slot))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s slot %d: compiled %v, interpreted %v", mode, slot, got, want)
			}
		}
	}
}

// TestLiveSchemeLevelOscillationMatchesFresh drives the membership up and
// down across a level boundary several times: the tables kept across the
// shrinks must schedule every epoch exactly as a scheme built from scratch
// over the same family does.
func TestLiveSchemeLevelOscillationMatchesFresh(t *testing.T) {
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live} {
		dy, err := NewDynamic(6, 2, false) // full: the next join grows a level
		if err != nil {
			t.Fatal(err)
		}
		ls := NewLiveScheme(dy, mode)
		grew, shrunk := 0, 0
		for i := 0; i < 8; i++ {
			op := core.TopologyOp{Name: "osc-" + string(rune('a'+i))}
			if i%2 == 1 {
				op = core.TopologyOp{Leave: true, Name: "osc-" + string(rune('a'+i-1))}
			}
			stats, err := ls.ApplyOps(core.Slot(i), []core.TopologyOp{op})
			if err != nil {
				t.Fatal(err)
			}
			if stats[0].Grew {
				grew++
			}
			if stats[0].Shrunk {
				shrunk++
			}
			fresh := NewLiveScheme(dy, mode)
			if ls.SteadyState() != fresh.SteadyState() {
				t.Fatalf("%s op %d: steady state %d, fresh scheme %d", mode, i, ls.SteadyState(), fresh.SteadyState())
			}
			for slot := core.Slot(0); slot < fresh.SteadyState()+2*fresh.Period(); slot++ {
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
		dy, err := NewDynamic(77, d, false)
		if err != nil {
			t.Fatal(err)
		}
		ls := NewLiveScheme(dy, core.Live)
		m, err := New(77, d, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ls.Neighbors(), m.Neighbors()) {
			t.Fatalf("d=%d: unchurned live mesh differs from the static greedy mesh", d)
		}
		if _, err := ls.ApplyOps(3, []core.TopologyOp{
			{Name: "alice"}, {Leave: true, Name: "node-4"}, {Name: "bob"}, {Leave: true, Name: "node-30"},
		}); err != nil {
			t.Fatal(err)
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
