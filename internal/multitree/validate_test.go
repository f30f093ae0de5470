package multitree

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"streamcast/internal/core"
)

// canonical copies the family with canonical ids — real members relabeled
// 1..N in id order, dummies after, members a shrink discarded dropped — as
// a statically built family would number them.
func canonical(ls *LiveScheme) *MultiTree {
	m := ls.m
	relabel := make([]core.NodeID, len(m.dummy))
	nextReal, nextDummy := core.NodeID(1), core.NodeID(m.N+1)
	for id := core.NodeID(1); int(id) < len(m.dummy); id++ {
		switch {
		case m.pos[0][id] == 0:
			// Discarded by a shrink.
		case !m.IsDummy(id):
			relabel[id] = nextReal
			nextReal++
		default:
			relabel[id] = nextDummy
			nextDummy++
		}
	}
	// In the lazy deferred-shrink state NP is a level above the canonical
	// padding for N members.
	c := newMultiTree(m.N, m.D, m.NP)
	for k, tree := range m.Trees {
		for p, id := range tree {
			c.Trees[k][p] = relabel[id]
		}
	}
	c.index()
	return c
}

// referenceValidate is the check LiveScheme.Validate made before it read the
// live layout in place: relabel the family to canonical ids and hold that
// copy to the static construction's invariants — each tree a permutation
// of 1..NP, interior-disjoint, each id's positions distinct mod d, dummies
// only at leaves — and then the tail class on the member ids.
func referenceValidate(ls *LiveScheme) error {
	m := canonical(ls)
	seen := make([]bool, m.NP+1)
	for k := 0; k < m.D; k++ {
		if len(m.Trees[k]) != m.NP {
			return fmt.Errorf("tree %d has %d positions, want %d", k, len(m.Trees[k]), m.NP)
		}
		clear(seen)
		for p, id := range m.Trees[k] {
			if id < 1 || int(id) > m.NP {
				return fmt.Errorf("tree %d position %d holds invalid id %d", k, p+1, id)
			}
			if seen[id] {
				return fmt.Errorf("tree %d holds id %d twice", k, id)
			}
			seen[id] = true
		}
	}
	for id := core.NodeID(1); int(id) <= m.NP; id++ {
		interiorIn := -1
		modSeen := make(map[int]int, m.D)
		for k := 0; k < m.D; k++ {
			p := m.pos[k][id]
			if p < 1 || p > m.NP {
				return fmt.Errorf("id %d missing from tree %d", id, k)
			}
			if p <= m.I {
				if int(id) > m.N {
					return fmt.Errorf("dummy id %d is interior in tree %d", id, k)
				}
				if interiorIn >= 0 {
					return fmt.Errorf("id %d interior in trees %d and %d", id, interiorIn, k)
				}
				interiorIn = k
			}
			if prev, dup := modSeen[p%m.D]; dup {
				return fmt.Errorf("id %d positions %d and %d congruent mod %d", id, prev, p, m.D)
			}
			modSeen[p%m.D] = p
		}
	}
	tail := make(map[core.NodeID]bool, ls.m.D)
	for _, mem := range ls.m.Trees[0][ls.m.NP-ls.m.D:] {
		tail[mem] = true
	}
	for k := 0; k < ls.m.D; k++ {
		for _, mem := range ls.m.Trees[k][ls.m.NP-ls.m.D:] {
			if !tail[mem] {
				return fmt.Errorf("tree %d tail member %d not in tree-0 tail class", k, mem)
			}
		}
	}
	return nil
}

// clone copies the family deeply, so a corruption of the copy leaves the
// sequence that produced it running. The copy shares the schedule, so it
// must not Apply.
func (s *LiveScheme) clone() *LiveScheme {
	m := *s.m
	m.Trees, m.pos = make([][]core.NodeID, m.D), make([][]int, m.D)
	for k := range m.D {
		m.Trees[k], m.pos[k] = slices.Clone(s.m.Trees[k]), slices.Clone(s.m.pos[k])
	}
	m.dummy = slices.Clone(s.m.dummy)
	c := *s
	c.m, c.names, c.byName = &m, slices.Clone(s.names), maps.Clone(s.byName)
	c.swaps = slices.Clone(s.swaps)
	return &c
}

// corruptions are the seeded ways a family can break: each edits a clone
// the way a bug in the churn algorithms would, and reports false when the
// family has nothing to break that way (no dummy, no real interior member).
var corruptions = []struct {
	name  string
	apply func(ls *LiveScheme, rng *rand.Rand) bool
}{
	{"cross-residue swap", func(ls *LiveScheme, rng *rand.Rand) bool {
		m := ls.m
		k, pa := rng.Intn(m.D), 1+rng.Intn(m.NP)
		pb := 1 + (pa+rng.Intn(m.D-1))%m.NP // pb ≢ pa (mod d)
		if pb%m.D == pa%m.D {
			return false
		}
		ls.swapInTree(k, pa, pb)
		return true
	}},
	{"interior dummy", func(ls *LiveScheme, rng *rand.Rand) bool {
		// A dummy swapped into the interior position of its residue.
		m := ls.m
		k := rng.Intn(m.D)
		for p := m.I + 1; p <= m.NP; p++ {
			if !m.IsDummy(m.Trees[k][p-1]) {
				continue
			}
			q := p % m.D
			if q == 0 {
				q = m.D
			}
			if q > m.I {
				return false
			}
			ls.swapInTree(k, q, p)
			return true
		}
		return false
	}},
	{"interior member retired in place", func(ls *LiveScheme, rng *rand.Rand) bool {
		// A delete that skipped the replacement step: an interior member
		// becomes a dummy where it stands.
		m := ls.m
		if m.I == 0 {
			return false
		}
		m.dummy[m.Trees[rng.Intn(m.D)][rng.Intn(m.I)]] = true
		m.N--
		return true
	}},
	{"tail member swapped out of the tail class", func(ls *LiveScheme, rng *rand.Rand) bool {
		// A same-residue swap between leaves moves a tail member of tree
		// k ≥ 1 out of the tail; nothing but the tail class breaks.
		m := ls.m
		k, p := 1+rng.Intn(m.D-1), m.NP-rng.Intn(m.D)
		q := p - m.D
		if q <= m.I {
			return false
		}
		ls.swapInTree(k, p, q)
		return true
	}},
}

// TestValidateInPlaceMatchesReference: the in-place LiveScheme.Validate and the
// Snapshot-based reference agree after every op of random eager and lazy
// sequences that grow and shrink the trees, and both reject every seeded
// corruption of the state each op leaves.
func TestValidateInPlaceMatchesReference(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		for _, lazy := range []bool{false, true} {
			name := fmt.Sprintf("d=%d/lazy=%v", d, lazy)
			ls, err := NewLiveScheme(2*d+1, d, lazy, core.PreRecorded)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(10*d + len(name))))
			grows, shrinks, rejected := 0, 0, make([]int, len(corruptions))
			for i := 0; i < 400; i++ {
				np := ls.m.NP
				// Drift up for the first half and down for the second, so
				// the trees gain and lose several levels.
				if i < 200 && rng.Intn(3) > 0 || i >= 200 && rng.Intn(3) == 0 || ls.m.N <= 2 {
					_, err = addMember(ls, fmt.Sprintf("j%d", i))
				} else {
					names := memberNames(ls)
					_, err = removeMember(ls, names[rng.Intn(len(names))])
				}
				if err != nil {
					t.Fatalf("%s op %d: %v", name, i, err)
				}
				grows += b2i(ls.m.NP > np)
				shrinks += b2i(ls.m.NP < np)
				if got, ref := ls.Validate(), referenceValidate(ls); got != nil || ref != nil {
					t.Fatalf("%s op %d: in place %v, reference %v", name, i, got, ref)
				}
				for c, bad := range corruptions {
					broken := ls.clone()
					if !bad.apply(broken, rng) {
						continue
					}
					rejected[c]++
					if got, ref := broken.Validate(), referenceValidate(broken); got == nil || ref == nil {
						t.Fatalf("%s op %d, %s: in place %v, reference %v; both must reject", name, i, bad.name, got, ref)
					}
				}
			}
			if grows < 3 || shrinks < 3 {
				t.Fatalf("%s: %d grows, %d shrinks; the sequence must cross levels both ways", name, grows, shrinks)
			}
			for c, n := range rejected {
				if n == 0 {
					t.Fatalf("%s: corruption %q never applied", name, corruptions[c].name)
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
