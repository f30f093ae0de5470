package slotsim

import (
	"strings"
	"testing"

	"streamcast/internal/core"
)

// stubScheme replays a fixed slot→transmissions table.
type stubScheme struct {
	n      int
	srcCap int
	slots  map[core.Slot][]core.Transmission
}

func (s *stubScheme) Name() string                             { return "stub" }
func (s *stubScheme) NumReceivers() int                        { return s.n }
func (s *stubScheme) SourceCapacity() int                      { return s.srcCap }
func (s *stubScheme) Neighbors() map[core.NodeID][]core.NodeID { return nil }
func (s *stubScheme) Transmissions(t core.Slot) []core.Transmission {
	return s.slots[t]
}

func tx(from, to core.NodeID, p core.Packet) core.Transmission {
	return core.Transmission{From: from, To: to, Packet: p}
}

// TestHappyPathChainOfTwo checks arrival bookkeeping and metrics on a tiny
// hand-built schedule: S→1 then 1→2 each slot.
func TestHappyPathChainOfTwo(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{}}
	for u := core.Slot(0); u < 10; u++ {
		s.slots[u] = append(s.slots[u], tx(0, 1, core.Packet(u)))
		if u >= 1 {
			s.slots[u] = append(s.slots[u], tx(1, 2, core.Packet(u-1)))
		}
	}
	res, err := Run(s, Options{Slots: 10, Packets: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.StartDelay[1] != 0 || res.StartDelay[2] != 1 {
		t.Errorf("start delays %v, want [_,0,1]", res.StartDelay)
	}
	if res.MaxBuffer[1] != 1 || res.MaxBuffer[2] != 1 {
		t.Errorf("buffers %v, want 1,1", res.MaxBuffer)
	}
	if res.WorstStartDelay() != 1 {
		t.Errorf("worst delay %d", res.WorstStartDelay())
	}
	if res.AvgStartDelay() != 0.5 {
		t.Errorf("avg delay %f", res.AvgStartDelay())
	}
}

// TestViolationSendCapacity: a receiver transmitting twice in a slot is
// rejected.
func TestViolationSendCapacity(t *testing.T) {
	s := &stubScheme{n: 3, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		1: {tx(1, 2, 0), tx(1, 3, 0)},
	}}
	_, err := Run(s, Options{Slots: 3, Packets: 1})
	assertViolation(t, err, "send capacity")
}

// TestViolationReceiveCapacity: two packets landing on one node in a slot.
func TestViolationReceiveCapacity(t *testing.T) {
	s := &stubScheme{n: 3, srcCap: 2, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0), tx(0, 1, 1)},
	}}
	_, err := Run(s, Options{Slots: 2, Packets: 1})
	assertViolation(t, err, "receive capacity")
}

// TestViolationNotHolding: relaying a packet never received.
func TestViolationNotHolding(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(1, 2, 0)},
	}}
	_, err := Run(s, Options{Slots: 2, Packets: 1})
	assertViolation(t, err, "does not hold")
}

// TestViolationSameSlotRelay: a packet received in slot t cannot be
// forwarded in slot t.
func TestViolationSameSlotRelay(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0), tx(1, 2, 0)},
	}}
	_, err := Run(s, Options{Slots: 2, Packets: 1})
	assertViolation(t, err, "does not hold")
}

// TestViolationLiveFuturePacket: in live mode the source cannot send packet
// p before slot p.
func TestViolationLiveFuturePacket(t *testing.T) {
	s := &stubScheme{n: 1, srcCap: 2, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 1)},
	}}
	_, err := Run(s, Options{Slots: 2, Packets: 1, Mode: core.Live})
	assertViolation(t, err, "does not hold")
}

// TestViolationDuplicate: receiving the same packet twice. Node 3 is still
// waiting when the duplicate lands, so the run has not ended (a bare run
// stops once the window is complete; TestStopRule pins that side).
func TestViolationDuplicate(t *testing.T) {
	s := &stubScheme{n: 3, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		1: {tx(0, 2, 0)},
		2: {tx(1, 2, 0)},
	}}
	_, err := Run(s, Options{Slots: 4, Packets: 1})
	assertViolation(t, err, "duplicate")
	// With AllowDuplicates the run proceeds (but packets 1.. never reach
	// node 1, so restrict the window).
	s2 := &stubScheme{n: 1, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		1: {tx(0, 1, 0)},
	}}
	if _, err := Run(s2, Options{Slots: 2, Packets: 1, AllowDuplicates: true}); err != nil {
		t.Errorf("AllowDuplicates run failed: %v", err)
	}
}

// TestViolationSelfAndRange: malformed endpoints.
func TestViolationSelfAndRange(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(1, 1, 0)},
	}}
	_, err := Run(s, Options{Slots: 1, Packets: 1})
	assertViolation(t, err, "self")
	s = &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 5, 0)},
	}}
	_, err = Run(s, Options{Slots: 1, Packets: 1})
	assertViolation(t, err, "out of range")
}

// TestIncompleteDelivery: the run fails if a node misses a packet in the
// window.
func TestIncompleteDelivery(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
	}}
	_, err := Run(s, Options{Slots: 3, Packets: 1})
	if err == nil || !strings.Contains(err.Error(), "never received") {
		t.Errorf("want never-received error, got %v", err)
	}
}

// TestLatencyDelaysArrival: with a 3-slot link, a packet sent at slot 0
// arrives at the end of slot 2 and can be relayed at slot 3.
func TestLatencyDelaysArrival(t *testing.T) {
	s := &stubScheme{n: 2, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 0)},
		3: {tx(1, 2, 0)},
	}}
	lat := func(from, to core.NodeID) core.Slot {
		if from == 0 {
			return 3
		}
		return 1
	}
	_, cells, err := runCells(s, Options{Slots: 5, Packets: 1, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if cells.At(1, 0) != 2 {
		t.Errorf("arrival at node 1 = %d, want 2", cells.At(1, 0))
	}
	if cells.At(2, 0) != 3 {
		t.Errorf("arrival at node 2 = %d, want 3", cells.At(2, 0))
	}
	// Relaying one slot earlier must fail.
	s.slots[2] = s.slots[3]
	delete(s.slots, 3)
	_, err = Run(s, Options{Slots: 5, Packets: 1, Latency: lat})
	assertViolation(t, err, "does not hold")
}

// TestMaxBufferAccounting pins down the buffer sampling convention.
func TestMaxBufferAccounting(t *testing.T) {
	// Node 1 receives packets 0,1,2 at slots 2,1,0 (reverse order).
	s := &stubScheme{n: 1, srcCap: 1, slots: map[core.Slot][]core.Transmission{
		0: {tx(0, 1, 2)},
		1: {tx(0, 1, 1)},
		2: {tx(0, 1, 0)},
	}}
	res, err := Run(s, Options{Slots: 3, Packets: 3})
	if err != nil {
		t.Fatal(err)
	}
	// start = max(2-0, 1-1, 0-2) = 2; packet 0 plays at slot 2.
	if res.StartDelay[1] != 2 {
		t.Fatalf("start %d, want 2", res.StartDelay[1])
	}
	// End of slot 2: all three packets arrived, packet 0 playing: 3 held.
	if res.MaxBuffer[1] != 3 {
		t.Errorf("max buffer %d, want 3", res.MaxBuffer[1])
	}
}

// TestOptionValidation covers constructor errors.
func TestOptionValidation(t *testing.T) {
	s := &stubScheme{n: 1, srcCap: 1}
	if _, err := Run(s, Options{Slots: 0, Packets: 1}); err == nil {
		t.Error("Slots=0 accepted")
	}
	if _, err := Run(s, Options{Slots: 1, Packets: 0}); err == nil {
		t.Error("Packets=0 accepted")
	}
}

// runCells is Run with the window's arrival cells asked for.
func runCells(s core.Scheme, opt Options) (*Result, *Arrivals, error) {
	opt.Arrivals = new(Arrivals)
	res, err := Run(s, opt)
	return res, opt.Arrivals, err
}

func assertViolation(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected %q violation, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("expected %q violation, got %v", substr, err)
	}
}
