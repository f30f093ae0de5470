package gossip

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streamcast/internal/core"
)

// refScheme is the generator this package shipped before the bitset
// rewrite, kept as the differential reference: []bool have-sets walked end
// to end on every pull, a `useful` slice sorted to take one element, a
// per-slot map and rng.Perm, and a memo of one slice per slot. It shares
// nothing with Scheme but the mesh and the seeded stream New leaves behind.
type refScheme struct {
	n        int
	d        int
	strategy Strategy
	rng      *rand.Rand
	nbrs     [][]core.NodeID
	holdings [][]bool
	nextSlot core.Slot
	memo     [][]core.Transmission
}

// newReference builds the mesh through New (so mesh and post-construction
// rng state are the production ones) and hands both to the old protocol.
func newReference(t *testing.T, n, d, degree int, strategy Strategy, seed int64) *refScheme {
	t.Helper()
	s, err := New(n, d, degree, strategy, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &refScheme{
		n: n, d: d, strategy: strategy, rng: s.rng, nbrs: s.nbrs,
		holdings: make([][]bool, n+1),
	}
}

func (s *refScheme) holds(id core.NodeID, p core.Packet) bool {
	h := s.holdings[id]
	return int(p) < len(h) && h[p]
}

func (s *refScheme) give(id core.NodeID, p core.Packet) {
	h := s.holdings[id]
	for int(p) >= len(h) {
		h = append(h, false)
	}
	h[p] = true
	s.holdings[id] = h
}

func (s *refScheme) Transmissions(t core.Slot) []core.Transmission {
	for s.nextSlot <= t {
		s.generate(s.nextSlot)
		s.nextSlot++
	}
	return s.memo[t]
}

func (s *refScheme) generate(t core.Slot) {
	order := s.rng.Perm(s.n)
	served := make(map[core.NodeID]int, s.n)
	var txs []core.Transmission
	for _, oi := range order {
		puller := core.NodeID(oi + 1)
		target := s.nbrs[puller][s.rng.Intn(len(s.nbrs[puller]))]
		capacity := 1
		if target == core.SourceID {
			capacity = s.d
		}
		if served[target] >= capacity {
			continue
		}
		p, ok := s.choose(puller, target, t)
		if !ok {
			continue
		}
		served[target]++
		txs = append(txs, core.Transmission{From: target, To: puller, Packet: p})
	}
	for _, tx := range txs {
		s.give(tx.To, tx.Packet)
	}
	s.memo = append(s.memo, txs)
}

func (s *refScheme) choose(puller, target core.NodeID, t core.Slot) (core.Packet, bool) {
	var useful []core.Packet
	if target == core.SourceID {
		for p := core.Packet(0); p <= core.Packet(int(t)); p++ {
			if !s.holds(puller, p) {
				useful = append(useful, p)
			}
		}
	} else {
		for p, has := range s.holdings[target] {
			if has && !s.holds(puller, core.Packet(p)) {
				useful = append(useful, core.Packet(p))
			}
		}
	}
	if len(useful) == 0 {
		return 0, false
	}
	sort.Slice(useful, func(i, j int) bool { return useful[i] < useful[j] })
	switch s.strategy {
	case PullNewest:
		return useful[len(useful)-1], true
	case PullRandom:
		return useful[s.rng.Intn(len(useful))], true
	default:
		return useful[0], true
	}
}

// TestMatchesReference: the bitset generator emits, slot by slot, exactly
// the reference's transmissions — same values, same order, so every seeded
// draw happened in the same place. The horizons run past 64, 128 and 192
// packets so the scans cross word boundaries; small meshes with d > 1 keep
// the source a frequent target, and sparse ones produce empty slots.
func TestMatchesReference(t *testing.T) {
	cases := []struct{ n, d, degree, slots int }{
		{5, 1, 2, 140},
		{5, 3, 8, 70}, // degree >= n: every node knows every peer
		{17, 2, 3, 210},
		{64, 3, 5, 200},
		{150, 3, 5, 260},
		{400, 4, 6, 140},
	}
	if testing.Short() {
		cases = cases[:4]
	}
	empty := 0
	for _, strat := range []Strategy{PullOldest, PullNewest, PullRandom} {
		for _, c := range cases {
			for seed := int64(1); seed <= 3; seed++ {
				s, err := New(c.n, c.d, c.degree, strat, seed)
				if err != nil {
					t.Fatal(err)
				}
				ref := newReference(t, c.n, c.d, c.degree, strat, seed)
				fromSource := 0
				for u := core.Slot(0); u < core.Slot(c.slots); u++ {
					got, want := s.Transmissions(u), ref.Transmissions(u)
					if !reflect.DeepEqual(got, want) { // nil and empty differ, as they must
						t.Fatalf("%s n=%d d=%d degree=%d seed=%d slot %d:\n got %v\nwant %v",
							strat, c.n, c.d, c.degree, seed, u, got, want)
					}
					if got == nil {
						empty++
					}
					for _, tx := range got {
						if tx.From == core.SourceID {
							fromSource++
						}
					}
				}
				if fromSource == 0 {
					t.Errorf("%s n=%d seed=%d: no source pull in %d slots", strat, c.n, seed, c.slots)
				}
			}
		}
	}
	if empty == 0 {
		t.Error("no case produced an empty slot")
	}
}
