package multitree

import (
	"fmt"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// runScheme simulates the scheme long enough to deliver `rounds` full rounds
// (d packets per round) to every node.
func runScheme(t *testing.T, s *Scheme, rounds int) *slotsim.Result {
	t.Helper()
	d := s.Tree.D
	h := s.Tree.Height()
	slots := core.Slot(h*d + (rounds+2)*d + 2*d)
	res, err := slotsim.Run(s, slotsim.Options{
		Slots:   slots,
		Packets: core.Packet(rounds * d),
		Mode:    s.Mode,
	})
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

// TestScheduleExampleSlots checks the paper's worked example (Section 2.2.3)
// on the Figure 3 trees: in slot 0, S sends packet 0 to node 1 (T_0),
// packet 1 to node 5 (T_1), packet 2 to node 9 (T_2); in slot 1 S sends to
// nodes 2, 6, 10; node 1 relays packet 0 to node 5 in slot 1, node 6 in
// slot 2 and node 4 in slot 3.
func TestScheduleExampleSlots(t *testing.T) {
	m, err := New(15, 3, Structured)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheme(m, core.PreRecorded)

	has := func(txs []core.Transmission, want core.Transmission) bool {
		for _, tx := range txs {
			if tx == want {
				return true
			}
		}
		return false
	}
	slot0 := s.Transmissions(0)
	for _, want := range []core.Transmission{
		{From: 0, To: 1, Packet: 0},
		{From: 0, To: 5, Packet: 1},
		{From: 0, To: 9, Packet: 2},
	} {
		if !has(slot0, want) {
			t.Errorf("slot 0 missing %v (got %v)", want, slot0)
		}
	}
	if len(slot0) != 3 {
		t.Errorf("slot 0 has %d transmissions, want 3", len(slot0))
	}
	slot1 := s.Transmissions(1)
	for _, want := range []core.Transmission{
		{From: 0, To: 2, Packet: 0},
		{From: 0, To: 6, Packet: 1},
		{From: 0, To: 10, Packet: 2},
		{From: 1, To: 5, Packet: 0},
	} {
		if !has(slot1, want) {
			t.Errorf("slot 1 missing %v (got %v)", want, slot1)
		}
	}
	if !has(s.Transmissions(2), core.Transmission{From: 1, To: 6, Packet: 0}) {
		t.Error("slot 2 missing 1->6:p0")
	}
	if !has(s.Transmissions(3), core.Transmission{From: 1, To: 4, Packet: 0}) {
		t.Error("slot 3 missing 1->4:p0")
	}
}

// TestScheduleDeliversAllModes runs every construction and mode through the
// simulator, which independently enforces the one-send/one-receive model.
func TestScheduleDeliversAllModes(t *testing.T) {
	for _, c := range []Construction{Structured, Greedy} {
		for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
			for _, tc := range []struct{ n, d int }{
				{1, 2}, {2, 2}, {5, 2}, {15, 3}, {16, 3}, {40, 4}, {100, 5}, {63, 2},
			} {
				m, err := New(tc.n, tc.d, c)
				if err != nil {
					t.Fatal(err)
				}
				s := NewScheme(m, mode)
				res := runScheme(t, s, 3)
				if res.WorstStartDelay() < 0 {
					t.Errorf("%s %s N=%d d=%d: degenerate worst delay %d",
						c, mode, tc.n, tc.d, res.WorstStartDelay())
				}
			}
		}
	}
}

// TestTheorem2WorstCaseBound verifies T <= h*d for the pre-recorded schedule
// (Theorem 2), measured by the simulator.
func TestTheorem2WorstCaseBound(t *testing.T) {
	for _, c := range []Construction{Structured, Greedy} {
		for _, tc := range []struct{ n, d int }{
			{15, 3}, {31, 2}, {64, 2}, {100, 3}, {200, 4}, {500, 5},
		} {
			m, err := New(tc.n, tc.d, c)
			if err != nil {
				t.Fatal(err)
			}
			s := NewScheme(m, core.PreRecorded)
			res := runScheme(t, s, 3)
			bound := core.Slot(m.Height() * tc.d)
			if got := res.WorstStartDelay(); got > bound {
				t.Errorf("%s N=%d d=%d: worst delay %d exceeds h*d=%d",
					c, tc.n, tc.d, got, bound)
			}
			// Buffer bound from Section 2.3: h*d packets suffice.
			if got := res.WorstBuffer(); got > int(bound) {
				t.Errorf("%s N=%d d=%d: worst buffer %d exceeds h*d=%d",
					c, tc.n, tc.d, got, bound)
			}
		}
	}
}

// TestAnalyticMatchesSimulated cross-checks the closed-form start delay
// against the simulator for every node.
func TestAnalyticMatchesSimulated(t *testing.T) {
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
		m, err := New(46, 3, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheme(m, mode)
		res := runScheme(t, s, 4)
		for id := 1; id <= m.N; id++ {
			want := s.AnalyticStartDelay(core.NodeID(id))
			if got := res.StartDelay[id]; got != want {
				t.Errorf("%s node %d: simulated start %d, analytic %d", mode, id, got, want)
			}
		}
	}
}

// TestLiveNeverSendsFuturePackets confirms the pipelined live schedule never
// transmits a packet before the slot it is produced in.
func TestLiveNeverSendsFuturePackets(t *testing.T) {
	m, err := New(29, 4, Structured)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheme(m, core.Live)
	for slot := core.Slot(0); slot < 60; slot++ {
		for _, tx := range s.Transmissions(slot) {
			if tx.From == core.SourceID && core.Slot(tx.Packet) > slot {
				t.Fatalf("slot %d: source sends future packet %d", slot, tx.Packet)
			}
		}
	}
}

// ancestorWalkFirstRecv is the reference for the firing lists' first: it walks
// position p's ancestor chain root to leaf, advancing from the virtual source
// slot to the first slot after each ancestor's whose residue mod d is the
// next position's child slot.
func ancestorWalkFirstRecv(mode core.StreamMode, d, k, p int) core.Slot {
	recv := virtualSourceSlot(mode, d, k)
	var chain []int
	for q := p; q > 0; q = ParentPos(q, d) {
		chain = append(chain, q)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		delta := (core.Slot(ChildSlot(chain[i], d)) - recv - 1) % core.Slot(d)
		if delta < 0 {
			delta += core.Slot(d)
		}
		recv += 1 + delta
	}
	return recv
}

// TestFirstRecvMatchesAncestorWalk: the first receive slots the builder
// reads off each parent's entry equal the ancestor walk at every position,
// dummy positions of padded sizes included, in all three stream modes: in a
// Scheme, in a LiveScheme, and in a LiveScheme whose lists joins extended
// from half the size, as resize extends them when the trees grow. firstRecv,
// which ChurnImpact reads without a Scheme, equals them too.
func TestFirstRecvMatchesAncestorWalk(t *testing.T) {
	modes := []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered}
	for _, n := range []int{1, 7, 64, 1001} {
		for d := 2; d <= 5; d++ {
			m, err := New(n, d, Greedy)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				ls, err := NewLiveScheme(n, d, false, mode)
				if err != nil {
					t.Fatal(err)
				}
				grown, err := NewLiveScheme(max(1, n/2), d, false, mode)
				if err != nil {
					t.Fatal(err)
				}
				for i := grown.m.N; i < n; i++ {
					if _, err := grown.Apply(0, core.TopologyOp{Name: fmt.Sprintf("j%d", i)}); err != nil {
						t.Fatal(err)
					}
				}
				for _, tab := range []struct {
					name string
					s    *Scheme
				}{{"Scheme", NewScheme(m, mode)}, {"LiveScheme", ls.sched}, {"grown", grown.sched}} {
					if np := tab.s.Tree.NP; np != m.NP {
						t.Fatalf("n=%d d=%d %s: %s covers %d positions, want %d", n, d, mode, tab.name, np, m.NP)
					}
					for k := 0; k < d; k++ {
						for p := 1; p <= m.NP; p++ {
							if got, want := core.Slot(tab.s.at(k, p).first), ancestorWalkFirstRecv(mode, d, k, p); got != want {
								t.Fatalf("n=%d d=%d %s tree %d position %d: %s reads %d, the ancestor walk %d",
									n, d, mode, k, p, tab.name, got, want)
							}
						}
					}
				}
				for k := 0; k < d; k++ {
					for p := 1; p <= m.NP; p++ {
						if got, want := firstRecv(mode, d, k, p), ancestorWalkFirstRecv(mode, d, k, p); got != want {
							t.Fatalf("n=%d d=%d %s tree %d position %d: firstRecv %d, the ancestor walk %d",
								n, d, mode, k, p, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPeriodDeclaration samples the core.Periodic promise: from warm on, and
// near slot 10⁶, slot t+P is slot t with the same edges in the same order and
// every packet P more.
func TestPeriodDeclaration(t *testing.T) {
	for d := 2; d <= 5; d++ {
		for _, n := range []int{1, d, 63, 1000} {
			m, err := New(n, d, Greedy)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
				s := NewScheme(m, mode)
				warm, P := s.Period()
				if P != core.Slot(d) {
					t.Fatalf("d=%d: period %d", d, P)
				}
				for _, from := range []core.Slot{warm, 1_000_000} {
					for t0 := from; t0 <= from+P; t0++ {
						at := append([]core.Transmission(nil), s.Transmissions(t0)...)
						later := s.Transmissions(t0 + P)
						if len(at) == 0 || len(later) != len(at) {
							t.Fatalf("d=%d n=%d %s: slot %d has %d transmissions, slot %d has %d", d, n, mode, t0, len(at), t0+P, len(later))
						}
						for i, x := range at {
							x.Packet += core.Packet(int(P))
							if later[i] != x {
								t.Fatalf("d=%d n=%d %s: slot %d entry %d is %v, want %v", d, n, mode, t0+P, i, later[i], x)
							}
						}
					}
				}
			}
		}
	}
}
