package slotsim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// aperiodic hides a scheme's period declaration: embedding the interface
// promotes only core.Scheme's methods.
type aperiodic struct{ core.Scheme }

// everySlot runs opt with an idle observer, which makes the engine execute
// every slot of the horizon and try no certificate.
func everySlot(t *testing.T, s core.Scheme, opt slotsim.Options) (*slotsim.Result, *slotsim.Arrivals) {
	t.Helper()
	opt.Observer = obs.SlotFunc(func(*obs.SlotView) {})
	opt.Arrivals = new(slotsim.Arrivals)
	res, err := slotsim.NewRunner().Run(s, opt)
	if err != nil {
		t.Fatalf("%s, every slot: %v", s.Name(), err)
	}
	return res, opt.Arrivals
}

// certifiedMatches runs opt directly, with and without an arrival record, and
// holds both Results to the every-slot run field for field, the certificate
// fields aside, and the record to its cells. It returns the direct Result.
func certifiedMatches(t *testing.T, name string, s core.Scheme, opt slotsim.Options) *slotsim.Result {
	t.Helper()
	want, wantCells := everySlot(t, s, opt)
	if want.CertPeriod != 0 {
		t.Fatalf("%s: an observed run reports a certificate", name)
	}
	direct, err := slotsim.NewRunner().Run(s, opt)
	if err != nil {
		t.Fatalf("%s: direct run: %v", name, err)
	}
	kept := opt
	kept.Arrivals = new(slotsim.Arrivals)
	withCells, err := slotsim.NewRunner().Run(s, kept)
	if err != nil {
		t.Fatalf("%s: direct run keeping cells: %v", name, err)
	}
	for _, got := range []*slotsim.Result{direct, withCells} {
		shape := *got
		shape.CertSlot, shape.CertPeriod = 0, 0
		if !reflect.DeepEqual(&shape, want) {
			t.Errorf("%s: certified %d/%d: Result differs from the every-slot run (slots used %d vs %d, worst delay %d vs %d, worst buffer %d vs %d)",
				name, got.CertSlot, got.CertPeriod, got.SlotsUsed, want.SlotsUsed, got.WorstStartDelay(), want.WorstStartDelay(), got.WorstBuffer(), want.WorstBuffer())
		}
	}
	if direct.CertSlot != withCells.CertSlot || direct.CertPeriod != withCells.CertPeriod {
		t.Errorf("%s: keeping the record moved the certificate", name)
	}
	if !reflect.DeepEqual(kept.Arrivals, wantCells) {
		t.Errorf("%s: the certified run's record differs from the every-slot run's cells", name)
	}
	return direct
}

// horizon is a window plus room for its last packet's worst lag, which is at
// most warm, plus two periods.
func horizon(s core.Periodic, w core.Packet) core.Slot {
	warm, P := s.Period()
	return core.Slot(int(w)) + warm + 2*P + 4
}

// TestCertifiedMultiTree: every multitree shape, mode and window gives the
// every-slot Result, and every window longer than warm + 2P certifies with
// period d at or before warm − 1 + 2P, the first boundary a certificate can
// hold at after the one-period check from warm − 1 fails.
func TestCertifiedMultiTree(t *testing.T) {
	modes := []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered}
	certified := 0
	for d := 2; d <= 5; d++ {
		for _, n := range []int{1, d, 63, 64, 1000, 5000} {
			m, err := multitree.New(n, d, multitree.Greedy)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				s := multitree.NewScheme(m, mode)
				warm, P := s.Period()
				for _, w := range []core.Packet{core.Packet(int(warm+P) / 2), core.Packet(int(3*(warm+P)) + 1)} {
					w = max(w, 1)
					name := fmt.Sprintf("d=%d/n=%d/%s/W=%d", d, n, mode, w)
					opt := slotsim.Options{Slots: horizon(s, w), Packets: w, Mode: mode}
					res := certifiedMatches(t, name, s, opt)
					if int(w) <= int(warm+2*P) {
						continue
					}
					if res.CertPeriod != P || res.CertSlot > warm-1+2*P {
						t.Errorf("%s: certificate %d/%d, want period %d by slot %d", name, res.CertSlot, res.CertPeriod, P, warm-1+2*P)
					}
					certified++
				}
			}
		}
	}
	if certified < 50 {
		t.Errorf("only %d runs certified", certified)
	}
}

// TestCertifiedSingleCube: the single cube certifies with period k in both
// modes for k = 3..12 and gives the every-slot Result: delay k and buffer 2
// in live mode (Proposition 1 in slots from 0).
func TestCertifiedSingleCube(t *testing.T) {
	for k := 3; k <= 12; k++ {
		s, err := hypercube.New(1<<k-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		warm, P := s.Period()
		if warm != core.Slot(k) || P != core.Slot(k) {
			t.Fatalf("k=%d: Period() = %d, %d, want %d, %d", k, warm, P, k, k)
		}
		for _, mode := range []core.StreamMode{core.PreRecorded, core.Live} {
			w := core.Packet(4*k + 1)
			name := fmt.Sprintf("k=%d/%s", k, mode)
			res := certifiedMatches(t, name, s, slotsim.Options{Slots: horizon(s, w), Packets: w, Mode: mode})
			if res.CertPeriod != P {
				t.Errorf("%s: certificate %d/%d, want period %d", name, res.CertSlot, res.CertPeriod, P)
			}
			if mode == core.Live && (res.WorstStartDelay() != core.Slot(k) || res.WorstBuffer() != 2) {
				t.Errorf("%s: worst delay %d, worst buffer %d, want %d and 2", name, res.WorstStartDelay(), res.WorstBuffer(), k)
			}
		}
	}
}

// falsePeriod declares a period its scheme's state never repeats at.
type falsePeriod struct {
	core.Scheme
	warm, P core.Slot
}

func (f falsePeriod) Period() (warm, P core.Slot) { return f.warm, f.P }

// halfRelay is periodic with period 2 but never certifies: the source sends
// packet t to node 1 at slot t, and node 1 relays its newest packet to node 2
// only in even slots, so node 2 never holds packet 0 and the floor never
// moves.
type halfRelay struct{ out []core.Transmission }

func (*halfRelay) Name() string                             { return "half-relay" }
func (*halfRelay) NumReceivers() int                        { return 2 }
func (*halfRelay) SourceCapacity() int                      { return 1 }
func (*halfRelay) Neighbors() map[core.NodeID][]core.NodeID { return nil }
func (*halfRelay) Period() (warm, P core.Slot)              { return 2, 2 }
func (h *halfRelay) Transmissions(t core.Slot) []core.Transmission {
	h.out = append(h.out[:0], core.Transmission{From: 0, To: 1, Packet: core.Packet(int(t))})
	if t%2 == 0 && t > 0 {
		h.out = append(h.out, core.Transmission{From: 1, To: 2, Packet: core.Packet(int(t) - 1)})
	}
	return h.out
}

// burst is periodic with period 2 from slot 0 under a receive capacity of 2:
// in every even slot t the source sends packets t and t+1 to its one
// receiver, which books an overflow entry each time.
type burst struct{ out []core.Transmission }

func (*burst) Name() string                             { return "burst" }
func (*burst) NumReceivers() int                        { return 1 }
func (*burst) SourceCapacity() int                      { return 2 }
func (*burst) Neighbors() map[core.NodeID][]core.NodeID { return nil }
func (*burst) Period() (warm, P core.Slot)              { return 0, 2 }
func (b *burst) Transmissions(t core.Slot) []core.Transmission {
	b.out = b.out[:0]
	if t%2 == 0 {
		p := core.Packet(int(t))
		b.out = append(b.out, core.Transmission{From: 0, To: 1, Packet: p}, core.Transmission{From: 0, To: 1, Packet: p + 1})
	}
	return b.out
}

// TestUncertifiedDeclarations: a declared period whose state never repeats
// leaves the run uncertified, slot by slot, with the Result it had before:
// the chained cube (N = 1000, no period) under false declarations, and a
// period-2 schedule whose floor never moves. A period that books overflow
// entries is not certified either.
func TestUncertifiedDeclarations(t *testing.T) {
	chain, err := hypercube.New(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, P := chain.Period(); P != 0 {
		t.Fatalf("the chained cube declares period %d", P)
	}
	opt := slotsim.Options{Slots: 400, Packets: 300}
	want, err := slotsim.NewRunner().Run(chain, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Slot{1, 9, 10, 12, 30} {
		name := fmt.Sprintf("chain/P=%d", p)
		got := certifiedMatches(t, name, falsePeriod{chain, 0, p}, opt)
		if got.CertPeriod != 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: certificate %d/%d, Result equal to the undeclared run's: %v", name, got.CertSlot, got.CertPeriod, reflect.DeepEqual(got, want))
		}
	}
	opt = slotsim.Options{Slots: 60, Packets: 40, RecvCap: func(core.NodeID) int { return 2 }}
	if got := certifiedMatches(t, "burst", &burst{}, opt); got.CertPeriod != 0 {
		t.Errorf("burst: certified %d/%d over periods that book overflow entries", got.CertSlot, got.CertPeriod)
	}
	opt = slotsim.Options{Slots: 60, Packets: 40, AllowIncomplete: true}
	got := certifiedMatches(t, "half-relay", &halfRelay{}, opt)
	if got.CertPeriod != 0 || got.Missing[2] != 20 {
		t.Errorf("half-relay: certificate %d/%d, node 2 missing %d, want uncertified and 20", got.CertSlot, got.CertPeriod, got.Missing[2])
	}
}

// TestCertificateHorizon: a run whose window would end past its horizon is
// not certified, and fails as the every-slot run does.
func TestCertificateHorizon(t *testing.T) {
	m, err := multitree.New(1000, 3, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	s := multitree.NewScheme(m, core.PreRecorded)
	ok := slotsim.Options{Slots: horizon(s, 200), Packets: 200}
	res, err := slotsim.Run(s, ok)
	if err != nil || res.CertPeriod == 0 {
		t.Fatalf("the full horizon: certificate %v, err %v", res, err)
	}
	short := ok
	short.Slots = res.SlotsUsed - 1
	_, err = slotsim.Run(s, short)
	_, wantErr := slotsim.Run(aperiodic{s}, short)
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Errorf("one slot short: %v, every slot: %v", err, wantErr)
	}
}

// TestLongerHorizonKeepsCertifiedRun: a certified run is unchanged by a
// longer horizon. Multitree (d = 2..5, every mode) and the single cube
// (k = 3..10) run at Slots S and 4S give field-for-field equal Results,
// CertSlot and CertPeriod included, and, with an arrival record, equal cells.
func TestLongerHorizonKeepsCertifiedRun(t *testing.T) {
	same := func(name string, s core.Periodic, w core.Packet, mode core.StreamMode) {
		t.Helper()
		S := horizon(s, w)
		for _, keep := range []bool{false, true} {
			var res [2]*slotsim.Result
			var cells [2]*slotsim.Arrivals
			for i, slots := range []core.Slot{S, 4 * S} {
				opt := slotsim.Options{Slots: slots, Packets: w, Mode: mode}
				if keep {
					opt.Arrivals = new(slotsim.Arrivals)
				}
				r, err := slotsim.NewRunner().Run(s, opt)
				if err != nil {
					t.Fatalf("%s, %d slots: %v", name, slots, err)
				}
				res[i], cells[i] = r, opt.Arrivals
			}
			if res[0].CertPeriod == 0 {
				t.Errorf("%s: not certified at %d slots", name, S)
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Errorf("%s (record %v): horizon ×4 changed the Result: certificate %d/%d → %d/%d, slots used %d → %d",
					name, keep, res[0].CertSlot, res[0].CertPeriod, res[1].CertSlot, res[1].CertPeriod, res[0].SlotsUsed, res[1].SlotsUsed)
			}
			// The two horizons may store the record at different cell widths;
			// its slots must be the same.
			if keep {
				for id := core.NodeID(0); int(id) <= res[0].N; id++ {
					if a, b := cells[0].Row(id), cells[1].Row(id); !slices.Equal(a, b) {
						t.Errorf("%s: horizon ×4 changed node %d's arrivals: %v → %v", name, id, a, b)
						break
					}
				}
			}
		}
	}
	for d := 2; d <= 5; d++ {
		for _, n := range []int{d, 100, 1000} {
			m, err := multitree.New(n, d, multitree.Greedy)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered} {
				s := multitree.NewScheme(m, mode)
				warm, P := s.Period()
				w := core.Packet(int(3*(warm+P)) + 1)
				same(fmt.Sprintf("d=%d/n=%d/%s/W=%d", d, n, mode, w), s, w, mode)
			}
		}
	}
	for k := 3; k <= 10; k++ {
		s, err := hypercube.New(1<<k-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.StreamMode{core.PreRecorded, core.Live} {
			same(fmt.Sprintf("k=%d/%s", k, mode), s, core.Packet(4*k+1), mode)
		}
	}
}
