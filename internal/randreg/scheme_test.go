package randreg

import (
	"reflect"
	"slices"
	"testing"

	"streamcast/internal/core"
)

// validateSlots replays a scheme's schedule and enforces the streaming
// invariants directly: per-slot send and receive load within capacity,
// no duplicate deliveries, packets only forwarded by nodes that already
// hold them, and the live source only serving packets already generated.
func validateSlots(t *testing.T, s *Scheme, horizon core.Slot) {
	t.Helper()
	n := s.NumReceivers()
	have := make([]map[core.Packet]bool, n+1)
	for v := range have {
		have[v] = map[core.Packet]bool{}
	}
	for slot := core.Slot(0); slot < horizon; slot++ {
		sent := make(map[core.NodeID]int)
		recv := make(map[core.NodeID]int)
		for _, tx := range s.Transmissions(slot) {
			sent[tx.From]++
			recv[tx.To]++
			if tx.Packet < 0 || core.Slot(tx.Packet) > slot {
				t.Fatalf("slot %d: packet %d not yet generated (%v)", slot, tx.Packet, tx)
			}
			if tx.From != core.SourceID && !have[tx.From][tx.Packet] {
				t.Fatalf("slot %d: node %d forwards packet %d it does not hold", slot, tx.From, tx.Packet)
			}
			if have[tx.To][tx.Packet] {
				t.Fatalf("slot %d: duplicate delivery of packet %d to node %d", slot, tx.Packet, tx.To)
			}
			have[tx.To][tx.Packet] = true
		}
		for id, c := range sent {
			cap := 1
			if id == core.SourceID {
				cap = s.SourceCapacity()
			}
			if c > cap {
				t.Fatalf("slot %d: node %d sent %d packets (cap %d)", slot, id, c, cap)
			}
		}
		for id, c := range recv {
			if c > 1 {
				t.Fatalf("slot %d: node %d received %d packets", slot, id, c)
			}
		}
	}
}

// TestLatinScheduleValid replays the latin schedule against the streaming
// invariants and confirms every receiver ends up receiving an in-order
// residue stream on each in-edge.
func TestLatinScheduleValid(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		seed int64
	}{{8, 2, 1}, {20, 3, 2}, {50, 4, 3}, {100, 5, 4}} {
		s, err := New(tc.n, tc.d, Latin, tc.seed)
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		horizon := s.MaxDelay() + core.Slot(4*tc.d) + 8
		validateSlots(t, s, horizon)
	}
}

// TestLatinPeriodicContract checks the closed form the latin mode promises:
// with P = d, Transmissions(t+P) = Transmissions(t) shifted by P for all t at
// or past MaxDelay.
func TestLatinPeriodicContract(t *testing.T) {
	s, err := New(30, 3, Latin, 7)
	if err != nil {
		t.Fatal(err)
	}
	const P = 3
	W := s.MaxDelay()
	for tt := W; tt < W+4*P; tt++ {
		base := slices.Clone(s.Transmissions(tt))
		next := s.Transmissions(tt + P)
		if len(base) != len(next) {
			t.Fatalf("slot %d vs %d: %d vs %d transmissions", tt, tt+P, len(base), len(next))
		}
		for i := range base {
			want := base[i]
			want.Packet += core.Packet(P)
			if next[i] != want {
				t.Fatalf("slot %d: transmission %d is %v, want %v", tt+P, i, next[i], want)
			}
		}
	}
}

// TestGossipModesValid replays pull and push against the same invariants.
func TestGossipModesValid(t *testing.T) {
	for _, mode := range []Mode{Pull, Push} {
		for _, tc := range []struct {
			n, d int
			seed int64
		}{{10, 2, 5}, {40, 3, 6}, {80, 4, 7}} {
			s, err := New(tc.n, tc.d, mode, tc.seed)
			if err != nil {
				t.Fatalf("%v n=%d d=%d: %v", mode, tc.n, tc.d, err)
			}
			validateSlots(t, s, 200)
		}
	}
}

// TestGossipReplayDeterministic: reading slots out of order, re-reading
// them, and rebuilding the scheme from the same seed must all observe the
// identical schedule (both engines replay schedules concurrently-ish, so
// the slot log is the contract).
func TestGossipReplayDeterministic(t *testing.T) {
	for _, mode := range []Mode{Pull, Push} {
		a, err := New(25, 3, mode, 13)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(25, 3, mode, 13)
		if err != nil {
			t.Fatal(err)
		}
		// a reads forward then re-reads; b jumps ahead first.
		_ = b.Transmissions(99)
		for tt := core.Slot(0); tt < 100; tt++ {
			x := a.Transmissions(tt)
			if !reflect.DeepEqual(x, a.Transmissions(tt)) {
				t.Fatalf("%v: re-reading slot %d changed the schedule", mode, tt)
			}
			if !reflect.DeepEqual(x, b.Transmissions(tt)) {
				t.Fatalf("%v: rebuild from equal seed diverged at slot %d", mode, tt)
			}
		}
	}
}

// TestGossipMakesProgress: the in-order gossip protocols must actually
// deliver a healthy prefix of the stream to every receiver.
func TestGossipMakesProgress(t *testing.T) {
	for _, mode := range []Mode{Pull, Push} {
		s, err := New(30, 3, mode, 17)
		if err != nil {
			t.Fatal(err)
		}
		const horizon = 400
		for tt := core.Slot(0); tt < horizon; tt++ {
			s.Transmissions(tt)
		}
		for v := 1; v <= s.NumReceivers(); v++ {
			if s.next[v] == 0 {
				t.Fatalf("%v: receiver %d got no packets in %d slots", mode, v, horizon)
			}
		}
	}
}

// TestGraphModeIndependent: the digraph for a seed must not depend on the
// schedule mode (the protocol rng stream is split from construction).
func TestGraphModeIndependent(t *testing.T) {
	var graphs []*Digraph
	for _, mode := range []Mode{Latin, Pull, Push} {
		s, err := New(20, 3, mode, 23)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, s.Digraph())
	}
	if !reflect.DeepEqual(graphs[0], graphs[1]) || !reflect.DeepEqual(graphs[0], graphs[2]) {
		t.Fatal("digraph differs across schedule modes for the same seed")
	}
}

// TestModeRoundTrip: ParseMode inverts String and rejects junk.
func TestModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{Latin, Pull, Push} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("chaotic"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}

// TestNeighborsShape: every receiver reports a sorted, self-free neighbor
// set drawn from its digraph in/out neighborhoods.
func TestNeighborsShape(t *testing.T) {
	s, err := New(15, 3, Latin, 29)
	if err != nil {
		t.Fatal(err)
	}
	nb := s.Neighbors()
	if len(nb) != 15 {
		t.Fatalf("Neighbors has %d entries, want 15", len(nb))
	}
	for v, list := range nb {
		for i, u := range list {
			if u == v {
				t.Fatalf("node %d lists itself", v)
			}
			if i > 0 && list[i-1] >= u {
				t.Fatalf("node %d neighbor list unsorted: %v", v, list)
			}
		}
	}
}

// TestGenerateAllocsPerSlot pins the cost model of the gossip modes:
// generating and reading one further slot at N = 1000 allocates the
// materialised slice and, every few slots, a log chunk — no permutation, no
// counter slice, no append-grown slot.
func TestGenerateAllocsPerSlot(t *testing.T) {
	for _, mode := range []Mode{Pull, Push} {
		s, err := New(1000, 3, mode, 31)
		if err != nil {
			t.Fatal(err)
		}
		next := core.Slot(100)
		s.Transmissions(next - 1)
		avg := testing.AllocsPerRun(200, func() {
			s.Transmissions(next)
			next++
		})
		if avg > 2 {
			t.Errorf("%v: %.0f allocations per generated slot, want <= 2", mode, avg)
		}
	}
}
