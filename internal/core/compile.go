package core

import "slices"

// Schedule compilation: most paper schemes (multi-tree round-robin,
// hypercube phases, cluster backbone) are eventually periodic — after a
// warmup prefix the transmission pattern repeats every P slots with every
// packet number advanced by exactly P (the stream rate is one packet per
// slot). CompileSchedule snapshots one warmup plus one period into a flat
// backing array so that steady-state slot generation becomes a sub-slice
// plus an in-place packet shift: zero allocations and no per-slot tree or
// cube walks.

// PeriodicScheme is an optional refinement of Scheme for schedules that are
// eventually periodic. The contract: for every t >= SteadyState(),
// Transmissions(t + Period()) returns the same transmissions as
// Transmissions(t), in the same order, with every Packet advanced by exactly
// Period() (the model streams one packet per slot). A Period() of 0 declines
// compilation for this configuration (e.g. a wrapper whose inner scheme is
// not periodic); CompileSchedule additionally re-derives one extra period
// and falls back when the claim does not hold.
type PeriodicScheme interface {
	Scheme
	// Period returns P >= 1, or 0 to decline compilation.
	Period() Slot
	// SteadyState returns the warmup length W >= 0: the first slot from
	// which the schedule is periodic.
	SteadyState() Slot
}

// Compilation safety caps: schedules whose warmup or period would
// materialize more state than this are executed uncompiled (the one-time
// compile would cost more than it saves, or the snapshot would not fit in
// memory). The transmission cap is sized for million-node runs: the paper's
// schemes emit O(N) transmissions per slot, so one warmup-plus-period window
// at N=10^6 holds a few tens of millions of entries — 1<<26 transmissions is
// a ~1.5 GiB backing array, the practical ceiling for a snapshot that is
// cached per Runner.
const (
	maxCompiledSlots         = 1 << 20
	maxCompiledTransmissions = 1 << 26
)

// MaxArrivalCells is the companion ceiling on the engine's arrival matrix
// (one int32 cell per node per tracked packet, so 4 GiB): a run whose
// horizon × population asks for more is refused up front with a sized error
// instead of dying in the allocator. The million-node hypercube uses under a
// twentieth of it.
const MaxArrivalCells = 1 << 30

// CompiledScheme is a snapshot of a periodic schedule. Transmissions(t)
// returns a capacity-clamped sub-slice of one flat backing array — zero
// allocations per call. For steady-state slots the packet numbers in the
// backing are shifted in place to the requested epoch, so:
//
//   - A CompiledScheme is NOT safe for concurrent use; give each goroutine
//     its own compiled instance (slotsim's pooled Runner does this).
//   - Callers must treat the returned slice as read-only; it stays valid
//     only until the next Transmissions call for the same slot residue.
//     The capacity clamp makes an append by the caller allocate a copy
//     instead of corrupting the neighboring slot's segment.
//
// Slots may be requested in any order: the shift is tracked per period
// residue and applied as a delta, so re-reading earlier slots (as a run does
// after the static verifier has read the same snapshot) shifts the segment
// back.
type CompiledScheme struct {
	src     Scheme
	period  Slot
	steady  Slot
	n       int
	srcCap  int
	maxPkt  Packet // largest packet in the snapshot as compiled (shift 0); -1 if empty
	backing []Transmission
	off     []int // len steady+period+1; off[i]..off[i+1] bounds slot i
	shift   []int // applied packet offset per period residue
}

var _ PeriodicScheme = (*CompiledScheme)(nil)

// CompileSchedule snapshots one warmup plus one period of a periodic scheme.
// It returns nil — and callers fall back to the uncompiled scheme — when the
// scheme does not implement PeriodicScheme, declines via Period() < 1, would
// exceed the compilation caps, or fails the verification pass (one extra
// period is re-derived from the scheme and compared against the snapshot
// advanced by P, so a wrongly-claimed period degrades to the slow path
// instead of corrupting a run). Compiling an already-compiled scheme returns
// it unchanged.
func CompileSchedule(s Scheme) *CompiledScheme {
	if c, ok := s.(*CompiledScheme); ok {
		return c
	}
	ps, ok := s.(PeriodicScheme)
	if !ok {
		return nil
	}
	p, w := ps.Period(), ps.SteadyState()
	if p < 1 || w < 0 || int(w)+2*int(p) > maxCompiledSlots {
		return nil
	}
	nSlots := int(w) + int(p)
	off := make([]int, nSlots+1)
	var backing []Transmission
	for t := 0; t < nSlots; t++ {
		off[t] = len(backing)
		txs := s.Transmissions(Slot(t))
		if t == int(w) {
			// The first steady slot tells how large a period is: size the
			// array for all P of them now, rather than let append double a
			// multi-megabyte array into place. An estimate past the cap
			// reserves nothing; the check below still decides.
			if want := len(backing) + int(p)*len(txs); want <= maxCompiledTransmissions {
				backing = slices.Grow(backing, want-len(backing))
			}
		}
		backing = append(backing, txs...)
		if len(backing) > maxCompiledTransmissions {
			return nil
		}
	}
	off[nSlots] = len(backing)
	maxPkt := Packet(-1)
	for _, tx := range backing {
		maxPkt = max(maxPkt, tx.Packet)
	}
	// Verification pass: the period after the snapshot must equal the
	// stored period with every packet advanced by P.
	adv := Packet(int(p))
	for i := 0; i < int(p); i++ {
		seg := backing[off[int(w)+i]:off[int(w)+i+1]]
		txs := s.Transmissions(w + p + Slot(i))
		if len(txs) != len(seg) {
			return nil
		}
		for j, tx := range txs {
			want := seg[j]
			want.Packet += adv
			if tx != want {
				return nil
			}
		}
	}
	return &CompiledScheme{
		src:     s,
		period:  p,
		steady:  w,
		n:       s.NumReceivers(),
		srcCap:  s.SourceCapacity(),
		maxPkt:  maxPkt,
		backing: backing,
		off:     off,
		shift:   make([]int, p),
	}
}

// WorthCompiling is the compile-amortisation rule: s is periodic and the
// one-time compilation cost (materializing W+2P slots) does not exceed the
// slot-generation work a single pass over the given horizon would spend
// anyway.
func WorthCompiling(s Scheme, horizon Slot) bool {
	ps, ok := s.(PeriodicScheme)
	if !ok {
		return false
	}
	p, w := ps.Period(), ps.SteadyState()
	return p >= 1 && w >= 0 && w+2*p <= horizon
}

// CompileForRun compiles s only when WorthCompiling says the horizon
// amortizes it. Returns nil when compilation is declined or fails.
func CompileForRun(s Scheme, horizon Slot) *CompiledScheme {
	if !WorthCompiling(s, horizon) {
		return nil
	}
	return CompileSchedule(s)
}

// Source returns the scheme the snapshot was compiled from.
func (c *CompiledScheme) Source() Scheme { return c.src }

// Name implements core.Scheme; the compiled snapshot keeps the source
// scheme's identity so reports and fingerprints are unaffected.
func (c *CompiledScheme) Name() string { return c.src.Name() }

// NumReceivers implements core.Scheme.
func (c *CompiledScheme) NumReceivers() int { return c.n }

// SourceCapacity implements core.Scheme.
func (c *CompiledScheme) SourceCapacity() int { return c.srcCap }

// Neighbors implements core.Scheme.
func (c *CompiledScheme) Neighbors() map[NodeID][]NodeID { return c.src.Neighbors() }

// Period implements PeriodicScheme.
func (c *CompiledScheme) Period() Slot { return c.period }

// SteadyState implements PeriodicScheme.
func (c *CompiledScheme) SteadyState() Slot { return c.steady }

// PacketBound returns an exclusive upper bound on the packet numbers
// Transmissions emits over slots [0, slots): the largest packet of the
// snapshot, advanced by the whole periods the last of those slots lies past
// the stored one. It lets the slot engine size its arrival matrix to the
// packets this schedule actually moves instead of slots × source capacity.
func (c *CompiledScheme) PacketBound(slots Slot) Packet {
	var adv Slot
	if last := slots - 1; last >= c.steady {
		adv = (last - c.steady) / c.period * c.period
	}
	return c.maxPkt + Packet(int(adv)) + 1
}

// Window exposes the compiled snapshot for symbolic verification: the
// warmup length, the period, the flat backing array and the slot offsets
// (off[i]..off[i+1] bounds slot i of the W+P stored slots). The returned
// slices alias the snapshot's internals — read-only for production callers,
// aliased on purpose so verifier tests can seed corruptions through them.
func (c *CompiledScheme) Window() (steady, period Slot, backing []Transmission, off []int) {
	return c.steady, c.period, c.backing, c.off
}

// Shift returns the packet offset currently applied in place to the stored
// segment of one period residue (see Transmissions). Symbolic verification
// reads it live so interleaved Transmissions calls stay consistent.
func (c *CompiledScheme) Shift(residue int) int {
	return c.shift[residue]
}

// Transmissions implements core.Scheme without allocating: warmup slots are
// verbatim sub-slices of the snapshot; steady-state slots shift their period
// segment's packets in place to the requested epoch before returning it.
func (c *CompiledScheme) Transmissions(t Slot) []Transmission {
	if t < 0 {
		return nil
	}
	if t < c.steady {
		lo, hi := c.off[t], c.off[t+1]
		return c.backing[lo:hi:hi]
	}
	i := int((t - c.steady) % c.period)
	idx := int(c.steady) + i
	lo, hi := c.off[idx], c.off[idx+1]
	seg := c.backing[lo:hi:hi]
	want := int((t-c.steady)/c.period) * int(c.period)
	if d := want - c.shift[i]; d != 0 {
		dp := Packet(d)
		for j := range seg {
			seg[j].Packet += dp
		}
		c.shift[i] = want
	}
	return seg
}
