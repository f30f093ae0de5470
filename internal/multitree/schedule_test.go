package multitree

import (
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
