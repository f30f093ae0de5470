package multitree

import (
	"fmt"
	"slices"
	"testing"

	"streamcast/internal/core"
)

// roundRobinSlot is the reference for the firing lists: the d·NP walk over
// every tree position, testing each against its first receive slot modulo d.
func roundRobinSlot(s *Scheme, t core.Slot) []core.Transmission {
	m := s.Tree
	d := core.Slot(m.D)
	var out []core.Transmission
	for k := 0; k < m.D; k++ {
		for p := 1; p <= m.NP; p++ {
			child := m.Trees[k][p-1]
			if m.IsDummy(child) {
				continue
			}
			first := s.firstRecv[k][p-1]
			if t < first || (t-first)%d != 0 {
				continue
			}
			round := (t - first) / d
			pkt := core.Packet(k) + core.Packet(int(round))*core.Packet(m.D)
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
// list of t's residue, emits exactly what the d·NP walk does — the same
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
						var steady core.Slot
						for id := 1; id <= n; id++ {
							for k := 0; k < d; k++ {
								steady = max(steady, s.FirstRecvSlot(k, core.NodeID(id)))
							}
						}
						for slot := core.Slot(0); slot < steady+core.Slot(3*d); slot++ {
							got := s.Transmissions(slot)
							if want := roundRobinSlot(s, slot); !slices.Equal(got, want) {
								t.Fatalf("%s slot %d: firing lists %v, round robin %v", c, slot, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// liveRoundRobinSlot is roundRobinSlot over a LiveScheme's current epoch:
// every padded position of every tree, occupants read from the Dynamic.
func liveRoundRobinSlot(s *LiveScheme, t core.Slot) []core.Transmission {
	dy := s.dy
	d := core.Slot(dy.d)
	var out []core.Transmission
	for k := 0; k < dy.d; k++ {
		for p := 1; p <= s.np; p++ {
			child := dy.trees[k][p-1]
			first := s.firstRecv[k][p-1]
			if !dy.real[child] || t < first || (t-first)%d != 0 {
				continue
			}
			pkt := core.Packet(k) + core.Packet(int((t-first)/d))*core.Packet(dy.d)
			from := core.SourceID
			if pp := ParentPos(p, dy.d); pp > 0 {
				from = core.NodeID(dy.trees[k][pp-1])
			}
			out = append(out, core.Transmission{From: from, To: core.NodeID(child), Packet: pkt})
		}
	}
	return out
}

// TestLiveFiringListsMatchRoundRobin: the live scheme's firing lists, kept
// up to date by their ends as joins grow and leaves shrink the trees, emit
// what the walk over every padded position does, after every op.
func TestLiveFiringListsMatchRoundRobin(t *testing.T) {
	for _, d := range []int{2, 3} {
		for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
			t.Run(fmt.Sprintf("d=%d/%s", d, mode), func(t *testing.T) {
				dy, err := NewDynamic(3*d, d, false) // full: the first join grows a level
				if err != nil {
					t.Fatal(err)
				}
				ls := NewLiveScheme(dy, mode)
				var ops []core.TopologyOp
				for i := 0; i < 2*d+1; i++ {
					ops = append(ops, core.TopologyOp{Name: fmt.Sprintf("j%d", i)})
				}
				for i := 0; i < 3*d; i++ {
					ops = append(ops, core.TopologyOp{Leave: true, Name: fmt.Sprintf("node-%d", i+1)})
				}
				for i, op := range ops {
					if _, err := ls.ApplyOps(core.Slot(i), []core.TopologyOp{op}); err != nil {
						t.Fatal(err)
					}
					for slot := core.Slot(0); slot < ls.SteadyState()+core.Slot(3*d); slot++ {
						if got, want := ls.Transmissions(slot), liveRoundRobinSlot(ls, slot); !slices.Equal(got, want) {
							t.Fatalf("op %d slot %d: firing lists %v, round robin %v", i, slot, got, want)
						}
					}
				}
			})
		}
	}
}
