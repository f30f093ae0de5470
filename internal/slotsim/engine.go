package slotsim

import (
	"fmt"
	"math"
	"math/bits"

	"streamcast/internal/core"
	"streamcast/internal/obs"
)

// unset marks a packet that has not yet arrived at a node.
const unset core.Slot = -1

// CapacityFunc returns a per-node, per-slot capacity.
type CapacityFunc func(id core.NodeID) int

// LatencyFunc returns the number of slots a transmission from one node to
// another occupies. It must return at least 1. A packet sent in slot t with
// latency L is available at the receiver from slot t+L onward (it arrives at
// the end of slot t+L-1).
type LatencyFunc func(from, to core.NodeID) core.Slot

// Options configures a simulation run.
type Options struct {
	// Slots is the horizon: an upper bound on the time slots simulated. The
	// Result is a function of the window's arrivals alone, so a run that
	// nothing outside the engine can watch — no Observer, Drop, Inject,
	// Latency or Churn — ends at the first slot boundary at which every
	// receiver holds the whole window; with any of those set, and whenever
	// the window never completes, all Slots slots run. A constraint the
	// schedule breaks only after that boundary is therefore seen by an
	// observed or injected run and not by a bare one: the engine validates
	// what it executes, and check.Static is the validator of a schedule over
	// a stated horizon.
	Slots core.Slot
	// Packets is the measurement window: metrics are computed over packets
	// 0..Packets-1 and the run fails unless every receiver has received all
	// of them within Slots.
	Packets core.Packet
	// Mode is the data-availability assumption at the source. In Live mode
	// the source may not transmit packet p before slot p.
	Mode core.StreamMode
	// SendCap overrides per-node send capacity. If nil, the source uses
	// the scheme's SourceCapacity and every receiver uses 1.
	SendCap CapacityFunc
	// RecvCap overrides per-node receive capacity. If nil, every node
	// uses 1.
	RecvCap CapacityFunc
	// Latency overrides per-link latency. If nil, every link takes 1 slot.
	// A returned latency below 1 is a configuration error: the run aborts
	// with a descriptive error at the first transmission that uses the
	// offending link.
	Latency LatencyFunc
	// Observer, if non-nil, receives per-slot event callbacks (slot
	// boundaries, transmissions, deliveries, drops, violations) in a
	// deterministic order. A nil Observer costs nothing beyond one pointer
	// check per event site.
	Observer obs.Observer
	// Arrivals, if non-nil, asks the run to keep the window's arrival cells:
	// on success it is overwritten with a matrix the caller owns. A Result
	// holds only per-node summaries, so a reader of single cells (Hiccups,
	// PlaybackSLO, mdc.RoundQuality) sets this and every other run skips the
	// 4·(N+1)·Packets bytes.
	Arrivals *Arrivals
	// AllowDuplicates, if set, tolerates a node receiving the same packet
	// twice (the duplicate is dropped but still consumes receive capacity).
	// By default a duplicate is a constraint violation.
	AllowDuplicates bool
	// Drop, if non-nil, is a failure-injection hook: a transmission for
	// which it returns true is validated and consumes send capacity but is
	// lost in flight (it never arrives). Use with AllowIncomplete.
	Drop func(tx core.Transmission, t core.Slot) bool
	// Inject, if non-nil, is the structured fault-injection hook (see
	// internal/faults): it is consulted once per validated transmission, in
	// schedule order, so a deterministic Injector yields bit-identical
	// faulted runs. DropTx loses the transmission in flight exactly like
	// Drop; DelayTx stretches the link latency for that one transmission.
	Inject Injector
	// AllowIncomplete, if set, lets the run finish even when some node
	// missed some packet of the measurement window; missing packets are
	// reported in Result.Missing and excluded from StartDelay.
	AllowIncomplete bool
	// SkipUnavailable, if set, silently skips scheduled transmissions
	// whose sender does not hold the packet instead of flagging a
	// violation — the loss-cascade behaviour of a real protocol under
	// failure injection. Only sensible together with Drop.
	SkipUnavailable bool
	// Churn, if non-nil, makes the topology a live workload: the source is
	// consulted at every slot boundary (before validate) and may apply
	// join/leave ops to the scheme, which must implement core.DynamicScheme.
	// The engine pre-sizes its struct-of-arrays state to Churn.MaxNodes() so
	// the arrival-matrix stride stays fixed across topology epochs, and
	// requires AllowIncomplete + SkipUnavailable (repair gaps cascade as
	// measurable losses). See internal/faults for the seeded, plan- and
	// generator-driven implementation.
	Churn ChurnSource
}

// Injector is the engine's structured fault-injection hook. The engine
// invokes it from the per-slot routing step, in schedule order, so
// implementations need no locking; implementations whose verdicts
// are pure functions of (tx, t) make faulted runs replayable bit for bit.
// internal/faults provides the seeded, plan-driven implementation.
type Injector interface {
	// DropTx reports whether the validated transmission is lost in flight:
	// it consumes send capacity and produces a Drop observer event, but
	// never arrives.
	DropTx(tx core.Transmission, t core.Slot) bool
	// DelayTx returns extra slots added to the link latency of this one
	// transmission (0 = undisturbed). A negative value is a configuration
	// error and aborts the run.
	DelayTx(tx core.Transmission, t core.Slot) core.Slot
}

// A Violation describes a broken model constraint detected during execution.
type Violation struct {
	Slot core.Slot
	Kind string
	Tx   core.Transmission
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("slotsim: slot %d: %s (%s)", v.Slot, v.Kind, v.Tx)
}

// Result holds the measured QoS quantities of a run.
type Result struct {
	// N is the number of receivers.
	N int
	// Packets is the measurement window size.
	Packets core.Packet
	// StartDelay[node] is the earliest slot s at which the node can begin
	// playback and then consume one packet per slot without hiccups:
	// s = max_j (arrival(node, j) - j) over the measurement window. Packet
	// j is consumed at the end of slot s+j; as in the paper's Figure 5, a
	// packet that arrives during a slot may be consumed at the end of that
	// same slot.
	StartDelay []core.Slot
	// MaxBuffer[node] is the peak number of packets simultaneously buffered
	// at the node, assuming playback starts at StartDelay[node] and a packet
	// leaves the buffer at the end of its playback slot.
	MaxBuffer []int
	// Missing[node] counts packets of the window that never arrived (only
	// non-zero under Options.AllowIncomplete).
	Missing []int
	// SlotsUsed is the last slot in which any measured packet arrived, +1.
	SlotsUsed core.Slot
}

// Arrivals is the measurement window's arrival matrix, kept for a run whose
// Options.Arrivals pointed at it: when each node received each window packet.
// The matrix is the caller's own memory — later runs on the same Runner do not
// touch it — and a second run handed the same Arrivals replaces its contents.
type Arrivals struct {
	packets core.Packet
	// cells is node-major with row stride packets, in the engine's own
	// encoding (slot + 1; 0 = never arrived).
	cells []int32
}

// At returns the slot at the end of which node id received window packet j,
// or -1 if it never arrived. Node 0 is the source, which receives nothing.
func (a *Arrivals) At(id core.NodeID, j core.Packet) core.Slot {
	return core.Slot(a.cells[int(id)*int(a.packets)+int(j)]) - 1
}

// Row returns node id's arrival slots over the whole window, indexed by
// packet (-1 = never arrived), as a fresh slice. It allocates; code that
// visits many nodes should call At.
func (a *Arrivals) Row(id core.NodeID) []core.Slot {
	out := make([]core.Slot, a.packets)
	for j := range out {
		out[j] = a.At(id, core.Packet(j))
	}
	return out
}

// Hiccups counts the playback interruptions node id would suffer if it
// committed to starting playback at the given slot: packets that are
// missing entirely or arrive after their playback slot start+j.
func (a *Arrivals) Hiccups(id core.NodeID, start core.Slot) int {
	n := 0
	for j := 0; j < int(a.packets); j++ {
		if at := a.At(id, core.Packet(j)); at == unset || at > start+core.Slot(j) {
			n++
		}
	}
	return n
}

// WorstStartDelay returns the maximum playback delay over all receivers.
func (r *Result) WorstStartDelay() core.Slot {
	var worst core.Slot
	for id := 1; id <= r.N; id++ {
		if d := r.StartDelay[id]; d > worst {
			worst = d
		}
	}
	return worst
}

// AvgStartDelay returns the mean playback delay over all receivers.
func (r *Result) AvgStartDelay() float64 {
	var sum float64
	for id := 1; id <= r.N; id++ {
		sum += float64(r.StartDelay[id])
	}
	return sum / float64(r.N)
}

// WorstBuffer returns the maximum buffer occupancy over all receivers.
func (r *Result) WorstBuffer() int {
	worst := 0
	for id := 1; id <= r.N; id++ {
		if b := r.MaxBuffer[id]; b > worst {
			worst = b
		}
	}
	return worst
}

// engine holds the mutable state of a run. All per-node state is
// struct-of-arrays (see soa.go and PERFORMANCE.md): flat arrays indexed by
// NodeID, with the arrival matrix flattened to one int32 array of stride
// maxPkt.
type engine struct {
	opt Options
	// dyn is the run's dynamic scheme view, set only under Options.Churn;
	// churnStep applies membership ops through it.
	dyn    core.DynamicScheme
	n      int
	maxPkt core.Packet // tracking bound for arrivals (window + slack)
	stride int         // row stride of the flat arrival matrix (= n+1)
	// arr is the packed arrival matrix, packet-major: arr[p·stride+id] holds
	// the arrival slot + 1 of packet p at node id, or unset32 (0). Rows are
	// packets because a slot moves only a few distinct packets across many
	// nodes, so packet-major turns each slot's matrix traffic into
	// near-sequential walks of a handful of rows; node-major would make
	// every access a random probe at large N. Each write marks the packet's
	// bit in dirtyRows so the next run clears only the rows this run touched.
	arr       []int32
	dirtyRows []uint64     // bitmap of arrival-matrix (packet) rows written this run
	sendCap   CapacityFunc // custom only; nil when sendTab is active
	recvCap   CapacityFunc // custom only; nil when recvTab is active
	latency   LatencyFunc  // nil on the fast path (no latency, no injector)
	sendTab   []int32      // precomputed default send capacities
	recvTab   []int32      // precomputed default receive capacities
	// fast marks a run with no LatencyFunc and no Injector: every link takes
	// exactly 1 slot, so routing bypasses the in-flight ring entirely.
	fast bool
	// direct marks a fast run that nothing observes or drops in flight: the
	// engine's own state is all a slot can change. step delivers the
	// schedule's slice as it stands, and — absent a churn source — runSlots
	// ends the run once the window is complete.
	direct bool
	// pending counts the receivers still missing part of the window: n at run
	// start, one less each time noteDelivery completes a node.
	pending int
	// ring buffers in-flight transmissions by arrival slot. nil on the
	// fast path.
	ring *txRing
	// Epoch-stamped per-slot capacity counters, packed stamp<<32 | count:
	// an entry is only meaningful when its stamp equals the phase's tick, so
	// no per-slot O(N) clearing is needed, and packing the stamp with the
	// count makes each check-and-bump a single cache-line access.
	sentSt []uint64
	recvSt []uint64
	// Playback cursors packed worstLag<<32 | got, updated at delivery time
	// for window packets: worstLag is max (arrival − packet), the node's
	// playback delay; got counts distinct window packets received.
	cursor []uint64
	sc     *scratch
	obs    obs.Observer
}

// satMul returns a·b for non-negative operands, saturating at math.MaxInt.
func satMul(a, b int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt {
		return math.MaxInt
	}
	return int(lo)
}

// grownInts returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified; callers reset what they read.
func grownInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// newEngine sizes and resets the run's state on the Runner's scratch.
// pktBound, when positive, is an exclusive bound on the packet numbers the
// run's schedule emits (core.CompiledScheme.PacketBound); zero means unknown.
func newEngine(s core.Scheme, opt Options, sc *scratch, pktBound core.Packet) (*engine, error) {
	if opt.Slots <= 0 {
		return nil, fmt.Errorf("slotsim: Slots must be > 0, got %d", opt.Slots)
	}
	if opt.Packets <= 0 {
		return nil, fmt.Errorf("slotsim: Packets must be > 0, got %d", opt.Packets)
	}
	n := s.NumReceivers()
	if n < 1 {
		return nil, fmt.Errorf("slotsim: scheme has %d receivers", n)
	}
	var dyn core.DynamicScheme
	if opt.Churn != nil {
		ds, ok := s.(core.DynamicScheme)
		if !ok {
			return nil, fmt.Errorf("slotsim: Options.Churn requires a core.DynamicScheme; %T is static", s)
		}
		if !opt.AllowIncomplete || !opt.SkipUnavailable {
			return nil, fmt.Errorf("slotsim: live churn requires AllowIncomplete and SkipUnavailable (repair gaps cascade as real losses)")
		}
		dyn = ds
		// Pre-size every per-node array to the largest id space churn may
		// create, so joins never remap mid-run. Ids beyond the initial
		// population stay silent until assigned.
		if m := opt.Churn.MaxNodes(); m > n {
			n = m
		}
	}
	srcCap := s.SourceCapacity()
	// Track arrivals for every packet the source could emit in the
	// simulated horizon, so availability checks work beyond the window.
	maxPkt := core.Packet(satMul(int(opt.Slots), srcCap))
	if int(maxPkt) <= math.MaxInt-srcCap {
		maxPkt += core.Packet(srcCap)
	}
	if pktBound > 0 && pktBound < maxPkt {
		// The schedule is known to stay below pktBound, so no transmission
		// can tell the difference — and the matrix is a fraction of the size
		// when the source emits fewer packets per slot than its capacity
		// (multitree: one, against a capacity of d).
		maxPkt = pktBound
	}
	if opt.Mode == core.Live && int(maxPkt) > int(opt.Slots) {
		// A live source cannot send packet p before slot p, so no node ever
		// holds a packet numbered Slots or above and those rows can never be
		// written.
		maxPkt = core.Packet(int(opt.Slots))
	}
	if maxPkt < opt.Packets {
		maxPkt = opt.Packets
	}
	need := satMul(n+1, int(maxPkt))
	if need > core.MaxArrivalCells {
		const gib = 1 << 30
		return nil, fmt.Errorf("slotsim: arrival matrix too large: N=%d nodes × %d packet rows needs %.1f GiB, over the %d GiB ceiling (core.MaxArrivalCells); shorten the horizon (%d slots) or the population",
			n, maxPkt, float64(need)*4/gib, core.MaxArrivalCells*4/gib, opt.Slots)
	}
	// Undo the previous run's arrival writes against the old backing, then
	// resize. A grown matrix is freshly allocated and therefore all-unset
	// (unset32 is the zero value); a reused one is made all-unset here by
	// clearing exactly the packet rows the dirty bitmap marks, each one
	// contiguous memclr of the previous run's row stride.
	if cap(sc.arr) < need {
		// The matrix will be freshly allocated; just forget the old writes.
		clear(sc.dirtyRows)
	} else {
		for w, set := range sc.dirtyRows {
			if set == 0 {
				continue
			}
			sc.dirtyRows[w] = 0
			for set != 0 {
				p := w<<6 + bits.TrailingZeros64(set)
				set &= set - 1
				clear(sc.arr[p*sc.prevStride : (p+1)*sc.prevStride])
			}
		}
	}
	sc.arr = grownInt32s(sc.arr, need)
	sc.dirtyRows = grownU64s(sc.dirtyRows, (int(maxPkt)+63)/64)
	sc.prevStride = n + 1

	// The packed epoch-stamped counters need no initialization: a stale
	// stamp is an already-spent tick and reads as count zero.
	sc.sentSt = grownU64s(sc.sentSt, n+1)
	sc.recvSt = grownU64s(sc.recvSt, n+1)
	sc.cursor = grownU64s(sc.cursor, n+1)
	lag := noLag // two's-complement bits of the sentinel, shifted into the high half
	curInit := uint64(uint32(lag)) << 32
	for i := range sc.cursor {
		sc.cursor[i] = curInit
	}
	sc.maxArr = -1

	fast := opt.Latency == nil && opt.Inject == nil
	sc.eng = engine{
		opt:       opt,
		dyn:       dyn,
		n:         n,
		maxPkt:    maxPkt,
		stride:    n + 1,
		arr:       sc.arr,
		dirtyRows: sc.dirtyRows,
		fast:      fast,
		direct:    fast && opt.Observer == nil && opt.Drop == nil,
		pending:   n,
		sentSt:    sc.sentSt,
		recvSt:    sc.recvSt,
		cursor:    sc.cursor,
		sc:        sc,
		obs:       opt.Observer,
	}
	e := &sc.eng
	if opt.SendCap == nil || opt.RecvCap == nil {
		// The default capacity tables are pure functions of (n, srcCap), so
		// repeated runs of same-shaped schemes skip the O(N) refill.
		if sc.tabN != n+1 || sc.tabSrcCap != int32(srcCap) {
			sc.sendTab = grownInt32s(sc.sendTab, n+1)
			sc.recvTab = grownInt32s(sc.recvTab, n+1)
			sc.sendTab[0] = int32(srcCap)
			sc.recvTab[0] = 1
			for i := 1; i <= n; i++ {
				sc.sendTab[i] = 1
				sc.recvTab[i] = 1
			}
			sc.tabN, sc.tabSrcCap = n+1, int32(srcCap)
		}
	}
	if opt.SendCap != nil {
		e.sendCap = opt.SendCap
	} else {
		e.sendTab = sc.sendTab
	}
	if opt.RecvCap != nil {
		e.recvCap = opt.RecvCap
	} else {
		e.recvTab = sc.recvTab
	}
	if !fast {
		e.latency = opt.Latency
		if e.latency == nil {
			e.latency = func(core.NodeID, core.NodeID) core.Slot { return 1 }
		}
		sc.ring.reset()
		e.ring = &sc.ring
	}
	return e, nil
}

// nextTick opens a new counting phase for the epoch-stamped capacity
// counters: any counter whose stamp predates the tick reads as zero. On the
// (practically unreachable) uint32 wraparound the stamp arrays are cleared
// so a stale stamp can never alias a live tick.
func (e *engine) nextTick() uint32 {
	e.sc.tick++
	if e.sc.tick == 0 {
		clear(e.sentSt)
		clear(e.recvSt)
		e.sc.tick = 1
	}
	return e.sc.tick
}

// sendCapOf returns the per-slot send capacity of a (range-checked) node.
func (e *engine) sendCapOf(id core.NodeID) int32 {
	if e.sendTab != nil {
		return e.sendTab[id]
	}
	return int32(e.sendCap(id))
}

// recvCapOf returns the per-slot receive capacity of a (range-checked) node.
func (e *engine) recvCapOf(id core.NodeID) int32 {
	if e.recvTab != nil {
		return e.recvTab[id]
	}
	return int32(e.recvCap(id))
}

// observeFail forwards a violation to the observer before the run aborts.
func (e *engine) observeFail(err error) error {
	if e.obs != nil {
		if v, ok := err.(*Violation); ok {
			e.obs.Violation(v.Slot, v.Kind, v.Tx)
		}
	}
	return err
}

// holds reports whether the node can transmit packet p during slot t.
func (e *engine) holds(id core.NodeID, p core.Packet, t core.Slot) bool {
	if p < 0 {
		return false
	}
	if id == core.SourceID {
		if e.opt.Mode == core.Live {
			return core.Slot(int(p)) <= t
		}
		return true
	}
	if p >= e.maxPkt {
		return false
	}
	a := e.arr[int(p)*e.stride+int(id)]
	// a stores arrival+1; the packet is forwardable from the slot after its
	// arrival, i.e. when arrival < t  ⇔  a ≤ t.
	return a != unset32 && core.Slot(a) <= t
}

// validateSends checks sender-side constraints for the slot's transmissions.
func (e *engine) validateSends(t core.Slot, txs []core.Transmission) error {
	tick := e.nextTick()
	for _, tx := range txs {
		if tx.From < 0 || int(tx.From) > e.n || tx.To < 0 || int(tx.To) > e.n {
			return &Violation{t, "node id out of range", tx}
		}
		if tx.From == tx.To {
			return &Violation{t, "self transmission", tx}
		}
		st := e.sentSt[tx.From]
		c := uint32(1)
		if uint32(st>>32) == tick {
			c = uint32(st) + 1
		}
		e.sentSt[tx.From] = uint64(tick)<<32 | uint64(c)
		if int32(c) > e.sendCapOf(tx.From) {
			return &Violation{t, "send capacity exceeded", tx}
		}
		if !e.holds(tx.From, tx.Packet, t) {
			return &Violation{t, "sender does not hold packet", tx}
		}
	}
	return nil
}

// noteDelivery advances the playback cursors for a window packet that was
// just written to the arrival matrix.
func (e *engine) noteDelivery(id core.NodeID, p core.Packet, t core.Slot) {
	if p >= e.opt.Packets {
		return
	}
	cur := e.cursor[id]
	got := uint32(cur) + 1
	worst := int32(uint32(cur >> 32))
	if lag := int32(t) - int32(p); lag > worst {
		worst = lag
	}
	e.cursor[id] = uint64(uint32(worst))<<32 | uint64(got)
	if got == uint32(e.opt.Packets) {
		e.pending--
	}
	if int32(t) > e.sc.maxArr {
		e.sc.maxArr = int32(t)
	}
}

// deliver applies arrivals scheduled for the end of slot t.
func (e *engine) deliver(t core.Slot, arrivals []core.Transmission) error {
	tick := e.nextTick()
	for _, tx := range arrivals {
		st := e.recvSt[tx.To]
		c := uint32(1)
		if uint32(st>>32) == tick {
			c = uint32(st) + 1
		}
		e.recvSt[tx.To] = uint64(tick)<<32 | uint64(c)
		if int32(c) > e.recvCapOf(tx.To) {
			return &Violation{t, "receive capacity exceeded", tx}
		}
		if tx.To == core.SourceID || tx.Packet >= e.maxPkt {
			// The source discards incoming packets; packets beyond the
			// tracking horizon only count against capacity.
			if e.obs != nil {
				e.obs.Deliver(t, tx, false)
			}
			continue
		}
		idx := int(tx.Packet)*e.stride + int(tx.To)
		if e.arr[idx] != unset32 {
			if !e.opt.AllowDuplicates {
				return &Violation{t, "duplicate packet", tx}
			}
			if e.obs != nil {
				e.obs.Deliver(t, tx, true)
			}
			continue
		}
		e.arr[idx] = int32(t) + 1
		e.dirtyRows[int(tx.Packet)>>6] |= 1 << (uint(tx.Packet) & 63)
		e.noteDelivery(tx.To, tx.Packet, t)
		if e.obs != nil {
			e.obs.Deliver(t, tx, false)
		}
	}
	return nil
}

// filterUnavailable drops scheduled transmissions whose sender lacks the
// packet (loss cascading under SkipUnavailable).
func (e *engine) filterUnavailable(t core.Slot, txs []core.Transmission) []core.Transmission {
	if !e.opt.SkipUnavailable {
		return txs
	}
	kept := e.sc.filter[:0]
	for _, tx := range txs {
		if e.holds(tx.From, tx.Packet, t) {
			kept = append(kept, tx)
		}
	}
	e.sc.filter = kept
	return kept
}

// route assigns each validated transmission to its arrival slot, applying
// failure injection and link latency. Same-slot (latency 1) arrivals are
// appended to sameSlot and returned; later arrivals go to the in-flight
// ring. A deterministic Injector sees one schedule-ordered call sequence.
func (e *engine) route(t core.Slot, txs []core.Transmission, sameSlot []core.Transmission) ([]core.Transmission, error) {
	for _, tx := range txs {
		if e.opt.Drop != nil && e.opt.Drop(tx, t) {
			if e.obs != nil {
				e.obs.Drop(t, tx)
			}
			continue // lost in flight; send capacity already spent
		}
		if e.fast {
			// No LatencyFunc and no Injector: every link takes one slot, so
			// the transmission arrives at the end of this very slot.
			if e.obs != nil {
				e.obs.Transmit(t, tx)
			}
			sameSlot = append(sameSlot, tx)
			continue
		}
		if e.opt.Inject != nil && e.opt.Inject.DropTx(tx, t) {
			if e.obs != nil {
				e.obs.Drop(t, tx)
			}
			continue // lost in flight; send capacity already spent
		}
		l := e.latency(tx.From, tx.To)
		if l < 1 {
			return nil, fmt.Errorf("slotsim: slot %d: Latency(%d, %d) returned %d for %s; LatencyFunc must return at least 1",
				t, tx.From, tx.To, l, tx)
		}
		if e.opt.Inject != nil {
			x := e.opt.Inject.DelayTx(tx, t)
			if x < 0 {
				return nil, fmt.Errorf("slotsim: slot %d: Inject.DelayTx returned %d for %s; extra delay must be >= 0",
					t, x, tx)
			}
			l += x
		}
		if e.obs != nil {
			e.obs.Transmit(t, tx)
		}
		if l == 1 {
			sameSlot = append(sameSlot, tx)
		} else {
			e.ring.enqueue(t+l-1, tx)
		}
	}
	return sameSlot, nil
}

// step executes one slot.
func (e *engine) step(t core.Slot, txs []core.Transmission) error {
	if e.direct {
		// Every link takes exactly one slot and nothing observes or drops in
		// flight, so the schedule's own slice IS the slot's arrival list —
		// skip the route copy entirely.
		txs = e.filterUnavailable(t, txs)
		if err := e.validateSends(t, txs); err != nil {
			return err
		}
		return e.deliver(t, txs)
	}
	if e.obs != nil {
		e.obs.SlotStart(t, len(txs))
	}
	txs = e.filterUnavailable(t, txs)
	if err := e.validateSends(t, txs); err != nil {
		return e.observeFail(err)
	}
	sameSlot := e.pendingArrivals(t)
	sameSlot, err := e.route(t, txs, sameSlot)
	if err != nil {
		return err
	}
	e.sc.arrive = sameSlot // retain grown capacity for later slots
	if err := e.deliver(t, sameSlot); err != nil {
		return e.observeFail(err)
	}
	if e.obs != nil {
		e.obs.SlotEnd(t)
	}
	return nil
}

// pendingArrivals returns the slot's arrival list seeded with any in-flight
// transmissions due at t, built on the reusable arrival scratch buffer.
func (e *engine) pendingArrivals(t core.Slot) []core.Transmission {
	sameSlot := e.sc.arrive[:0]
	if e.ring != nil {
		sameSlot = e.ring.drain(t, sameSlot)
	}
	return sameSlot
}

// finishTile is how many node ids finish gathers at a time. A tile's rows
// (finishTile·Packets int32s, 150 KB at 600 packets) should stay in L2 while
// every window packet row contributes its finishTile-wide run to them; a run of
// 64 int32s is 256 contiguous bytes of the packet-major source, enough to use
// the cache lines it fetches. Measured on the dense benchmark shape, 16–64 are
// within noise of each other and 128 and up are a fifth slower.
const finishTile = 64

// finish computes the Result after the last slot. The playback cursors
// maintained at delivery time supply StartDelay, Missing and SlotsUsed
// directly; only the per-node buffer-occupancy scan still walks the window.
func (e *engine) finish() (*Result, error) {
	np := int(e.opt.Packets)
	r := &Result{
		N:          e.n,
		Packets:    e.opt.Packets,
		StartDelay: make([]core.Slot, e.n+1),
		MaxBuffer:  make([]int, e.n+1),
		Missing:    make([]int, e.n+1),
	}
	if m := core.Slot(e.sc.maxArr); m > r.SlotsUsed {
		r.SlotsUsed = m
	}
	// Indexable by every arrival slot: none is later than maxArr.
	counts := grownInts(e.sc.counts, int(e.sc.maxArr)+1)
	e.sc.counts = counts
	for i := range counts {
		counts[i] = 0
	}
	// The scratch matrix is packet-major and the occupancy scan walks one
	// node's packets, so the window is transposed — a tile of ids at a time:
	// cell by cell would write with a stride of one output row, a cache miss
	// per cell, where each packet row's run for a tile lands in rows still
	// cached from the previous packet, and the tile's metrics are computed
	// before those rows are evicted. A tile is gathered into one reused buffer
	// and forgotten; only a run that asked for its cells writes them to the
	// heap, into a node-major matrix that stays valid after the Runner's
	// buffers are recycled. It keeps the scratch encoding (slot+1, 0 = never
	// arrived): the fresh allocation is already all-unset and half the size of
	// a core.Slot matrix.
	var cells []int32
	if e.opt.Arrivals != nil {
		cells = make([]int32, (e.n+1)*np)
	} else {
		e.sc.tile = grownInt32s(e.sc.tile, finishTile*np)
	}
	for lo := 0; lo <= e.n; lo += finishTile {
		hi := min(lo+finishTile, e.n+1)
		first := max(lo, 1)
		if receivedNone(e.cursor[lo:hi]) {
			// No id of the tile received a window packet — the join headroom of
			// a live-churn run is thousands of such ids — so its cells are the
			// zeros already there and its metrics need no scan.
			if !e.opt.AllowIncomplete {
				return nil, fmt.Errorf("slotsim: node %d never received packet 0 within %d slots", first, e.opt.Slots)
			}
			for id := first; id < hi; id++ {
				r.Missing[id] = np
			}
			continue
		}
		out := e.sc.tile
		if cells != nil {
			out = cells[lo*np:]
		}
		for j := 0; j < np; j++ {
			o := j
			for _, a := range e.arr[j*e.stride+lo : j*e.stride+hi] {
				out[o] = a
				o += np
			}
		}
		for id := first; id < hi; id++ {
			row := out[(id-lo)*np : (id-lo+1)*np]
			cur := e.cursor[id]
			got := int(uint32(cur))
			if got < np {
				if !e.opt.AllowIncomplete {
					for j, a := range row {
						if a == unset32 {
							return nil, fmt.Errorf("slotsim: node %d never received packet %d within %d slots", id, j, e.opt.Slots)
						}
					}
				}
				r.Missing[id] = np - got
			}
			if worst := int32(uint32(cur >> 32)); worst != noLag {
				r.StartDelay[id] = core.Slot(worst)
			}
			r.MaxBuffer[id] = maxBuffer(row, r.StartDelay[id], counts)
		}
	}
	r.SlotsUsed++
	if cells != nil {
		*e.opt.Arrivals = Arrivals{packets: e.opt.Packets, cells: cells}
	}
	return r, nil
}

// receivedNone reports whether no id of a run of playback cursors received a
// window packet: every received-count half is zero.
func receivedNone(cursors []uint64) bool {
	for _, cur := range cursors {
		if uint32(cur) != 0 {
			return false
		}
	}
	return true
}

// maxBuffer computes the peak buffer occupancy for one node: packet j
// occupies the buffer from the end of its arrival slot through the end of
// slot start+j (its playback slot), inclusive; a packet that arrives in its
// own playback slot is counted exactly once. Occupancy is sampled at the
// end of every slot, so a packet played during slot t still counts at the
// end of t; this matches the paper's "store 2 packets" accounting for the
// hypercube scheme (one being consumed plus one being disseminated).
//
// arrival is one node's window in the packed encoding (slot + 1; 0 = never
// arrived). counts is a caller-owned scratch slice, all zero on entry and
// indexable by every arrival slot; maxBuffer re-zeroes each entry it touches,
// so the slice is all zero again on return and reusable for the next node.
func maxBuffer(arrival []int32, start core.Slot, counts []int) int {
	var end int32 // latest arrival slot + 1
	for _, a := range arrival {
		if a == unset32 {
			continue
		}
		counts[a-1]++
		if a > end {
			end = a
		}
	}
	peak, have := 0, 0
	for t := core.Slot(0); t < core.Slot(end); t++ {
		have += counts[t]
		counts[t] = 0
		// Packets fully played (playback slot strictly before t) are gone.
		played := int(t - start)
		if played < 0 {
			played = 0
		}
		if played > len(arrival) {
			played = len(arrival)
		}
		if occ := have - played; occ > peak {
			peak = occ
		}
	}
	return peak
}
