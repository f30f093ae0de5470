package randreg

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamcast/internal/core"
)

// newScheme draws the seeded digraph over n receivers and the source and
// builds mode on it, the way spec's randreg family does.
func newScheme(n, degree int, mode Mode, seed int64) (*Scheme, error) {
	g, err := NewDigraph(n+1, degree, uint64(seed))
	if err != nil {
		return nil, err
	}
	return New(g, mode, seed)
}

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
		s, err := newScheme(tc.n, tc.d, Latin, tc.seed)
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
	s, err := newScheme(30, 3, Latin, 7)
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
			s, err := newScheme(tc.n, tc.d, mode, tc.seed)
			if err != nil {
				t.Fatalf("%v n=%d d=%d: %v", mode, tc.n, tc.d, err)
			}
			validateSlots(t, s, 200)
		}
	}
}

// TestGossipReplayDeterministic: reading slots out of order, re-reading
// them, and rebuilding the scheme from the same seed must all observe the
// identical schedule. A returned slot is valid until the next call, so the
// first read is cloned before the re-read.
func TestGossipReplayDeterministic(t *testing.T) {
	for _, mode := range []Mode{Pull, Push} {
		a, err := newScheme(25, 3, mode, 13)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newScheme(25, 3, mode, 13)
		if err != nil {
			t.Fatal(err)
		}
		// a reads forward then re-reads; b jumps ahead first.
		_ = b.Transmissions(99)
		for tt := core.Slot(0); tt < 100; tt++ {
			x := slices.Clone(a.Transmissions(tt))
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
		s, err := newScheme(30, 3, mode, 17)
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
	s, err := newScheme(15, 3, Latin, 29)
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

// TestReplayMatchesInOrderRead: pull and push keep no history, so a read of
// an earlier slot rewinds and regenerates. Slots read in a seeded shuffled
// order, with repeats and backward jumps, each cloned as it is read, equal a
// fresh scheme's in-order read: same values, same order, nil for an empty
// slot.
func TestReplayMatchesInOrderRead(t *testing.T) {
	const horizon = 150
	empty := 0
	for _, mode := range []Mode{Pull, Push} {
		for _, c := range []struct {
			n, degree int
			seed      int64
		}{{5, 2, 1}, {9, 4, 2}, {40, 3, 3}, {300, 4, 4}} {
			fresh, err := newScheme(c.n, c.degree, mode, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]core.Transmission, horizon)
			for u := range want {
				want[u] = slices.Clone(fresh.Transmissions(core.Slot(u)))
				if want[u] == nil {
					empty++
				}
			}
			s, err := newScheme(c.n, c.degree, mode, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range shuffledReads(horizon, c.seed) {
				if got := slices.Clone(s.Transmissions(core.Slot(u))); !reflect.DeepEqual(got, want[u]) {
					t.Fatalf("%v n=%d d=%d seed=%d read %d (slot %d):\n got %v\nwant %v",
						mode, c.n, c.degree, c.seed, i, u, got, want[u])
				}
			}
		}
	}
	if empty == 0 {
		t.Error("no case produced an empty slot")
	}
}

// shuffledReads is a seeded read order over slots 0..horizon-1: two
// shuffled passes, every slot read twice in a row once in a while, so the
// order has repeats, backward jumps and forward runs.
func shuffledReads(horizon int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var reads []int
	for pass := 0; pass < 2; pass++ {
		for _, u := range rng.Perm(horizon) {
			reads = append(reads, u)
			if rng.Intn(5) == 0 {
				reads = append(reads, u)
			}
		}
	}
	return reads
}

// TestGenerateAllocsPerSlot pins the cost model of every mode: generating
// and reading one further slot at N = 1000 allocates nothing — no
// permutation, no counter slice, no stored or copied slot — since a slot is
// built in one reused buffer.
func TestGenerateAllocsPerSlot(t *testing.T) {
	for _, mode := range []Mode{Pull, Push, Latin} {
		s, err := newScheme(1000, 3, mode, 31)
		if err != nil {
			t.Fatal(err)
		}
		next := core.Slot(100)
		s.Transmissions(next - 1)
		avg := testing.AllocsPerRun(200, func() {
			s.Transmissions(next)
			next++
		})
		if avg > 0 {
			t.Errorf("%v: %.0f allocations per generated slot, want 0", mode, avg)
		}
	}
}
