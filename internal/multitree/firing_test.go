package multitree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamcast/internal/core"
)

// ancestorTable holds the ancestor walk's first receive slot of positions
// 1..np of every tree: first[k][p-1].
func ancestorTable(mode core.StreamMode, d, np int) [][]core.Slot {
	first := make([][]core.Slot, d)
	for k := range first {
		for p := 1; p <= np; p++ {
			first[k] = append(first[k], ancestorWalkFirstRecv(mode, d, k, p))
		}
	}
	return first
}

// roundRobinSlot is the reference for the firing lists: the d·NP walk over
// every position of m's trees, occupants read from m, testing each position
// against its first receive slot from the ancestor walk modulo d.
func roundRobinSlot(m *MultiTree, first [][]core.Slot, t core.Slot) []core.Transmission {
	d := core.Slot(m.D)
	var out []core.Transmission
	for k := 0; k < m.D; k++ {
		for p := 1; p <= m.NP; p++ {
			child := m.Trees[k][p-1]
			f := first[k][p-1]
			if m.IsDummy(child) || t < f || (t-f)%d != 0 {
				continue
			}
			pkt := core.Packet(k) + core.Packet(int((t-f)/d))*core.Packet(m.D)
			from := core.SourceID
			if pp := ParentPos(p, m.D); pp > 0 {
				from = m.Trees[k][pp-1]
			}
			out = append(out, core.Transmission{From: from, To: child, Packet: pkt})
		}
	}
	return out
}

// TestFiringListsMatchRoundRobin: Transmissions, which walks only the firing
// lists of t's residue, emits exactly what the d·NP walk does — the same
// transmissions in the same order — over every slot up to three rounds past
// the steady state (the last first receive slot of a real position), for both
// constructions. multitree.New refuses d = 1, so the degrees start at 2.
func TestFiringListsMatchRoundRobin(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		for _, d := range []int{2, 3, 4, 5} {
			for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
				t.Run(fmt.Sprintf("n=%d/d=%d/%s", n, d, mode), func(t *testing.T) {
					for _, c := range []Construction{Structured, Greedy} {
						m, err := New(n, d, c)
						if err != nil {
							t.Fatal(err)
						}
						s := NewScheme(m, mode)
						first := ancestorTable(mode, d, m.NP)
						var steady core.Slot
						for id := 1; id <= n; id++ {
							for k := 0; k < d; k++ {
								steady = max(steady, s.FirstRecvSlot(k, core.NodeID(id)))
							}
						}
						for slot := core.Slot(0); slot < steady+core.Slot(3*d); slot++ {
							got := s.Transmissions(slot)
							if want := roundRobinSlot(m, first, slot); !slices.Equal(got, want) {
								t.Fatalf("%s slot %d: firing lists %v, round robin %v", c, slot, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// TestLiveFiringListsMatchRoundRobin: the live scheme's firing lists, moved
// at their ends as joins grow and leaves shrink the trees and patched where
// an op moved an occupant, equal the lists a fresh build over the family
// makes and emit what the walk over every padded position does, after every
// op of a 320-op sequence that swings the membership up and down by several
// levels, in both the eager and the lazy variant.
func TestLiveFiringListsMatchRoundRobin(t *testing.T) {
	for d := 2; d <= 4; d++ {
		for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
			t.Run(fmt.Sprintf("d=%d/%s", d, mode), func(t *testing.T) {
				for _, lazy := range []bool{false, true} {
					ls, err := NewLiveScheme(3*d, d, lazy, mode) // full: the first join grows a level
					if err != nil {
						t.Fatal(err)
					}
					first := ancestorTable(mode, d, ls.m.NP)
					rng := rand.New(rand.NewSource(int64(d)))
					up := true
					minNP, maxNP := ls.m.NP, ls.m.NP
					for i := 0; i < 320; i++ {
						// Four ops in five go the way of the swing, which
						// turns at 2 and at 12d+3 members.
						if n := ls.m.N; n >= 12*d+3 {
							up = false
						} else if n <= 2 {
							up = true
						}
						op := core.TopologyOp{Name: fmt.Sprintf("j%d", i)}
						if join := (rng.Intn(5) != 0) == up; !join && ls.m.N > 1 {
							names := memberNames(ls)
							op = core.TopologyOp{Leave: true, Name: names[rng.Intn(len(names))]}
						}
						if _, err := ls.Apply(core.Slot(i), op); err != nil {
							t.Fatal(err)
						}
						minNP, maxNP = min(minNP, ls.m.NP), max(maxNP, ls.m.NP)
						if len(first[0]) < ls.m.NP {
							first = ancestorTable(mode, d, maxNP)
						}
						if fresh := NewScheme(ls.m, mode); !reflect.DeepEqual(ls.sched.fires, fresh.fires) {
							t.Fatalf("lazy=%v op %d (%+v): patched lists %v, fresh build %v", lazy, i, op, ls.sched.fires, fresh.fires)
						}
						for slot := core.Slot(0); slot < ls.SteadyState()+core.Slot(3*d); slot++ {
							if got, want := ls.Transmissions(slot), roundRobinSlot(ls.m, first, slot); !slices.Equal(got, want) {
								t.Fatalf("lazy=%v op %d slot %d: firing lists %v, round robin %v", lazy, i, slot, got, want)
							}
						}
					}
					if maxNP-minNP < 6*d {
						t.Fatalf("lazy=%v: NP stayed within %d..%d, the sequence never crossed several levels", lazy, minNP, maxNP)
					}
				}
			})
		}
	}
}
