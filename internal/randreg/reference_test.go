package randreg

import (
	"reflect"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/stats"
)

// refGossip is the pull/push generator this package shipped before the
// slot-log rewrite, kept as the differential reference: a fresh rng.Perm
// and a fresh counter slice per slot, an append-grown slice per slot in a
// memo. It shares the digraph with Scheme and nothing of the protocol.
type refGossip struct {
	g        *Digraph
	mode     Mode
	n, d     int
	rng      *stats.SplitMix64
	next     []core.Packet
	nextSlot core.Slot
	memo     [][]core.Transmission
}

func newRefGossip(t *testing.T, n, degree int, mode Mode, seed int64) *refGossip {
	t.Helper()
	s, err := New(n, degree, mode, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &refGossip{
		g: s.g, mode: mode, n: n, d: degree,
		rng:  stats.NewSplitMix64(stats.NewSplitMix64(uint64(seed)).Uint64() ^ 0xA5A5A5A5A5A5A5A5),
		next: make([]core.Packet, n+1),
	}
}

func (r *refGossip) Transmissions(t core.Slot) []core.Transmission {
	for r.nextSlot <= t {
		r.generate(r.nextSlot)
		r.nextSlot++
	}
	return r.memo[t]
}

func (r *refGossip) holds(u int, p core.Packet, t core.Slot) bool {
	if u == 0 {
		return core.Slot(int(p)) <= t
	}
	return r.next[u] > p
}

func (r *refGossip) generate(t core.Slot) {
	var txs []core.Transmission
	if r.mode == Pull {
		order := r.rng.Perm(r.n)
		served := make([]int, r.n+1)
		for _, oi := range order {
			v := oi + 1
			p := r.next[v]
			u := r.g.In[v][r.rng.Intn(r.d)]
			if !r.holds(u, p, t) || served[u] >= 1 {
				continue
			}
			served[u]++
			txs = append(txs, core.Transmission{From: core.NodeID(u), To: core.NodeID(v), Packet: p})
		}
	} else {
		order := r.rng.Perm(r.n + 1)
		got := make([]int, r.n+1)
		for _, v := range order {
			w := r.g.Out[v][r.rng.Intn(r.d)]
			if w == 0 {
				continue
			}
			p := r.next[w]
			if !r.holds(v, p, t) || got[w] >= 1 {
				continue
			}
			got[w]++
			txs = append(txs, core.Transmission{From: core.NodeID(v), To: core.NodeID(w), Packet: p})
		}
	}
	for _, tx := range txs {
		r.next[tx.To]++
	}
	r.memo = append(r.memo, txs)
}

// TestGossipModesMatchReference: pull and push emit, slot by slot, exactly
// the reference's transmissions — values, order, and nil for an empty slot
// (slot 0 of a push run whose source draws itself out, the slots before the
// first packet reaches anyone) — so every seeded draw landed in the same
// place. Horizons run past 192 packets; N spans 5 to a few hundred.
func TestGossipModesMatchReference(t *testing.T) {
	cases := []struct{ n, degree, slots int }{
		{5, 2, 200},
		{9, 4, 130},
		{33, 3, 200},
		{120, 3, 220},
		{400, 5, 130},
	}
	if testing.Short() {
		cases = cases[:3]
	}
	empty := 0
	for _, mode := range []Mode{Pull, Push} {
		for _, c := range cases {
			for seed := int64(1); seed <= 4; seed++ {
				s, err := New(c.n, c.degree, mode, seed)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefGossip(t, c.n, c.degree, mode, seed)
				for u := core.Slot(0); u < core.Slot(c.slots); u++ {
					got, want := s.Transmissions(u), ref.Transmissions(u)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v n=%d degree=%d seed=%d slot %d:\n got %v\nwant %v",
							mode, c.n, c.degree, seed, u, got, want)
					}
					if got == nil {
						empty++
					}
				}
			}
		}
	}
	if empty == 0 {
		t.Error("no case produced an empty slot")
	}
}
