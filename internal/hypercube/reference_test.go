package hypercube

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"streamcast/internal/core"
)

// refTransmissions is the slot generator this package shipped before the
// prefix-XOR rewrite, kept as the differential reference: an unsized output
// slice, a fresh `dims` slice per in-flight packet, and every holder rebuilt
// from the base point bit by bit.
func refTransmissions(s *Scheme, t core.Slot) []core.Transmission {
	var out []core.Transmission
	for _, chain := range s.groups {
		for i, c := range chain {
			tau := t - c.base
			if tau < 0 {
				break
			}
			injector := core.SourceID
			if i > 0 {
				prev := chain[i-1]
				injector = prev.id(1 << prev.dim(t-prev.base))
			}
			out = append(out, core.Transmission{
				From:   injector,
				To:     c.id(1 << c.dim(tau)),
				Packet: core.Packet(int(tau)),
			})
			out = refAppendSpreads(out, c, tau)
		}
	}
	return out
}

func refAppendSpreads(out []core.Transmission, c cubeSpec, tau core.Slot) []core.Transmission {
	cur := 1 << c.dim(tau)
	lo := tau - core.Slot(c.k)
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < tau; j++ {
		var dims []int
		for u := j + 1; u < tau; u++ {
			dims = append(dims, c.dim(u))
		}
		basePt := 1 << c.dim(j)
		for mask := 0; mask < 1<<len(dims); mask++ {
			v := basePt
			for b, dd := range dims {
				if mask&(1<<b) != 0 {
					v ^= 1 << dd
				}
			}
			if v == cur {
				continue
			}
			out = append(out, core.Transmission{
				From:   c.id(v),
				To:     c.id(v ^ cur),
				Packet: core.Packet(int(j)),
			})
		}
	}
	return out
}

// refNeighbors is the old mesh builder: a map of sets filled edge by edge,
// each set ranged into a list in map-iteration order.
func refNeighbors(s *Scheme) map[core.NodeID][]core.NodeID {
	set := make(map[core.NodeID]map[core.NodeID]bool, s.n)
	add := func(a, b core.NodeID) {
		if set[a] == nil {
			set[a] = make(map[core.NodeID]bool)
		}
		set[a][b] = true
		if b == core.SourceID {
			return
		}
		if set[b] == nil {
			set[b] = make(map[core.NodeID]bool)
		}
		set[b][a] = true
	}
	for _, chain := range s.groups {
		for i, c := range chain {
			for v := 1; v < 1<<c.k; v++ {
				for b := 0; b < c.k; b++ {
					w := v ^ 1<<b
					if w == 0 {
						continue
					}
					if w > v {
						add(c.id(v), c.id(w))
					}
				}
			}
			if i == 0 {
				for b := 0; b < c.k; b++ {
					add(c.id(1<<b), core.SourceID)
				}
				continue
			}
			prev := chain[i-1]
			period := core.Slot(lcm(prev.k, c.k))
			for off := core.Slot(0); off < period; off++ {
				t := c.base + core.Slot(c.k) + off
				add(prev.id(1<<prev.dim(t-prev.base)), c.id(1<<c.dim(t-c.base)))
			}
		}
	}
	out := make(map[core.NodeID][]core.NodeID, s.n)
	for id := core.NodeID(1); int(id) <= s.n; id++ {
		list := make([]core.NodeID, 0, len(set[id]))
		for nb := range set[id] {
			list = append(list, nb)
		}
		out[id] = list
	}
	return out
}

// referenceSchemes are the differential inputs: single cubes, chains down to
// 1-cubes, and groups of unequal chains; then every dimension order of a
// 3-cube, some of a 4-cube, and two that repeat a dimension (holder sets
// then collapse onto each other and may miss the freed sender).
func referenceSchemes(t *testing.T) map[string]*Scheme {
	t.Helper()
	out := map[string]*Scheme{}
	for _, n := range []int{1, 2, 3, 7, 11, 100, 1000, 1023, 4097} {
		for _, d := range []int{1, 2, 3, 5} {
			s, err := New(n, d)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("n=%d d=%d", n, d)] = s
		}
	}
	orders := [][]int{
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
		{3, 1, 0, 2}, {2, 3, 0, 1}, {0, 1, 2, 3},
		{0, 0, 1}, {1, 1, 1, 1},
	}
	for _, order := range orders {
		s, err := NewWithDimOrder(1<<len(order)-1, order)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("order=%v", order)] = s
	}
	return out
}

// TestTransmissionsMatchReference: the prefix-XOR walk emits the reference
// generator's transmissions, one for one and in its order, through warm-up
// and several periods of every cube.
func TestTransmissionsMatchReference(t *testing.T) {
	for name, s := range referenceSchemes(t) {
		for slot := core.Slot(0); slot < 80; slot++ {
			got, want := s.Transmissions(slot), refTransmissions(s, slot)
			if len(got) != len(want) {
				t.Fatalf("%s slot %d: %d transmissions, reference has %d", name, slot, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s slot %d: transmission %d is %v, reference has %v", name, slot, i, got[i], want[i])
				}
			}
		}
		if got := s.Transmissions(-1); got != nil {
			t.Errorf("%s: slot -1 yields %v, want nil", name, got)
		}
	}
}

// TestNeighborsMatchReference: the row-per-vertex mesh holds, for every id,
// the members of the reference builder's set and nothing twice.
func TestNeighborsMatchReference(t *testing.T) {
	sorted := func(list []core.NodeID) []core.NodeID {
		out := append([]core.NodeID{}, list...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for name, s := range referenceSchemes(t) {
		got, want := s.Neighbors(), refNeighbors(s)
		if len(got) != len(want) {
			t.Fatalf("%s: %d nodes listed, reference has %d", name, len(got), len(want))
		}
		for id, list := range want {
			if g, w := sorted(got[id]), sorted(list); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: node %d lists %v, reference has %v", name, id, g, w)
			}
		}
	}
}

// TestNeighborsOrderIsStable: two calls return identical slices; the lists
// used to come out in map-iteration order.
func TestNeighborsOrderIsStable(t *testing.T) {
	for name, s := range referenceSchemes(t) {
		if a, b := s.Neighbors(), s.Neighbors(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two Neighbors() calls disagree", name)
		}
	}
}

// TestTransmissionsAllocatesOnce: one slot is one allocation, the sized
// output slice — nothing per packet or per transmission.
func TestTransmissionsAllocatesOnce(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{1023, 1}, {1000, 3}} {
		s, err := New(tc.n, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		for _, slot := range []core.Slot{3, 40} {
			if got := testing.AllocsPerRun(20, func() { s.Transmissions(slot) }); got != 1 {
				t.Errorf("n=%d d=%d slot %d: %v allocations per call, want 1", tc.n, tc.d, slot, got)
			}
		}
	}
}
