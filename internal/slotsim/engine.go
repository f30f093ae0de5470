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

// CapacityFunc returns a per-node, per-slot capacity. A run reads it once for
// every node id (0..N, or the churn ceiling under Options.Churn) before its
// first slot, so it must not depend on the slot.
type CapacityFunc func(id core.NodeID) int

// LatencyFunc returns the number of slots a transmission from one node to
// another occupies. It must return at least 1. A packet sent in slot t with
// latency L is available at the receiver from slot t+L onward (it arrives at
// the end of slot t+L-1). As an Injector it loses nothing and stretches each
// link's one slot to f(from, to).
type LatencyFunc func(from, to core.NodeID) core.Slot

// DropTx implements Injector: a link's latency loses nothing.
func (f LatencyFunc) DropTx(core.Transmission, core.Slot) bool { return false }

// DelayTx implements Injector: the slots f adds to the link's one.
func (f LatencyFunc) DelayTx(tx core.Transmission, _ core.Slot) core.Slot {
	return f(tx.From, tx.To) - 1
}

// DropFunc reports whether a transmission sent in slot t is lost in flight.
// As an Injector it loses what f reports and delays nothing.
type DropFunc func(tx core.Transmission, t core.Slot) bool

// DropTx implements Injector.
func (f DropFunc) DropTx(tx core.Transmission, t core.Slot) bool { return f(tx, t) }

// DelayTx implements Injector: a lost-or-not verdict delays nothing.
func (f DropFunc) DelayTx(core.Transmission, core.Slot) core.Slot { return 0 }

// Options configures a simulation run.
type Options struct {
	// Slots is the horizon: an upper bound on the time slots simulated. The
	// Result is a function of the window's arrivals alone, so a direct run —
	// one that nothing outside the engine reads or changes: no Observer,
	// Inject or Churn — leaves early at the first slot boundary where either
	//   - every receiver holds the whole window (window complete), or
	//   - the scheme declares core.Periodic and its state has repeated one
	//     period later (certified, period.go): every later slot repeats, and
	//     finish extrapolates the Result the remaining slots would give,
	//     Result.CertSlot and CertPeriod saying where and how.
	// With an Observer, Inject or Churn set, and when neither exit comes,
	// all Slots slots run, each through the same step. A constraint the
	// schedule breaks only after a window-complete exit is therefore seen by
	// an observed or injected run and not by a direct one; a certified run
	// has proved that no later slot breaks one. The engine validates what it
	// executes, and check.Static is the validator of a schedule over a
	// stated horizon.
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
	// Observer, if non-nil, is handed one view per executed slot, after the
	// slot's deliveries (obs.SlotView). It changes no slot's work, only how
	// many slots run (Slots).
	Observer obs.Observer
	// Arrivals, if non-nil, is a record the run fills: newEngine sizes it to
	// the run's ids and window and clears it, and every window arrival is
	// written into it as it happens (a certified run fills the rest from its
	// certificate), so it holds the run's arrival slots once the run
	// succeeds. It owns its memory: the Runner neither keeps nor
	// reuses it. A Result holds only per-node summaries, so a reader of single
	// cells (Hiccups, PlaybackSLO, mdc.RoundQuality) sets this. The engine
	// never reads it, so it changes nothing else about the run: a run that
	// leaves it nil writes no int32 cell and never holds the 4·(N+1)·Packets
	// bytes.
	Arrivals *Arrivals
	// AllowDuplicates, if set, tolerates a node receiving the same packet
	// twice (the duplicate is dropped but still consumes receive capacity).
	// By default a duplicate is a constraint violation.
	AllowDuplicates bool
	// Inject, if non-nil, is the run's one in-flight hook: it is asked once
	// per validated transmission, in schedule order, whether the
	// transmission is lost (DropTx) and how many slots its link adds to the
	// model's one (DelayTx), so a deterministic Injector yields
	// bit-identical runs. Link latency is a LatencyFunc, a bare loss
	// predicate is a DropFunc, and a fault plan is internal/faults'
	// Injector. If nil, nothing is lost and every link takes 1 slot. A link that would take
	// fewer than 1 slot is a configuration error: the run aborts at the
	// first transmission that uses it. Use a dropping hook with
	// AllowIncomplete.
	Inject Injector
	// AllowIncomplete, if set, lets the run finish even when some node
	// missed some packet of the measurement window; missing packets are
	// reported in Result.Missing and excluded from StartDelay.
	AllowIncomplete bool
	// SkipUnavailable, if set, silently skips scheduled transmissions
	// whose sender does not hold the packet instead of flagging a
	// violation — the loss-cascade behaviour of a real protocol under
	// failure injection. Only sensible together with a dropping Inject.
	SkipUnavailable bool
	// Churn, if non-nil, makes the topology a live workload: the source is
	// consulted at every slot boundary (before validate) and may apply
	// join/leave ops to the scheme, which must implement core.DynamicScheme.
	// The engine pre-sizes its struct-of-arrays state to Churn.MaxNodes() so
	// the arrival-matrix stride stays fixed across topology epochs, and
	// requires AllowIncomplete + SkipUnavailable (repair gaps cascade as
	// measurable losses). The Result covers the ids the scheme allocated by
	// the end of the run (Result.N), not that ceiling. See internal/faults
	// for the seeded, plan- and generator-driven implementation.
	Churn ChurnSource
}

// Injector is the engine's structured fault-injection hook. The engine
// invokes it from the per-slot routing step, in schedule order, so
// implementations need no locking; implementations whose verdicts
// are pure functions of (tx, t) make faulted runs replayable bit for bit.
// internal/faults provides the seeded, plan-driven implementation.
type Injector interface {
	// DropTx reports whether the validated transmission is lost in flight:
	// it consumes send capacity and is listed in the slot view's Lost, but
	// never arrives.
	DropTx(tx core.Transmission, t core.Slot) bool
	// DelayTx returns the slots added to the link's one for this one
	// transmission (0 = undisturbed). A value below 0 makes the link take
	// less than 1 slot, a configuration error that aborts the run.
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
	// N is the number of receivers: the scheme's NumReceivers() as the run
	// ends. Under Options.Churn that is the id space the scheme allocated —
	// live members, dummies and departed ids alike — and never the churn
	// ceiling the engine sized its state to; no id past N was ever a member.
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
	// CertPeriod > 0 marks a run the engine certified (period.go): after
	// slot CertSlot its state was the state CertPeriod slots earlier shifted
	// by CertPeriod packets, so it stopped there and extrapolated every field
	// above, each equal to what the run executed slot by slot gives.
	CertSlot, CertPeriod core.Slot
}

// Arrivals is the measurement window's arrival matrix, kept for a run whose
// Options.Arrivals pointed at it: when each node received each window packet.
// The run writes it in place; a second run handed the same Arrivals replaces
// its contents.
type Arrivals struct {
	packets core.Packet
	// cells is packet-major with row stride stride (the run's node ids,
	// churn headroom included), encoded slot + 1 (0 = never arrived):
	// cells[j·stride+id] is window packet j at node id. A reader that visits
	// many nodes walks it a packet row at a time.
	cells  []int32
	stride int
}

// At returns the slot at the end of which node id received window packet j,
// or -1 if it never arrived. Node 0 is the source, which receives nothing.
func (a *Arrivals) At(id core.NodeID, j core.Packet) core.Slot {
	return core.Slot(a.cells[int(j)*a.stride+int(id)]) - 1
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

// forget clears node id's row: the id's previous occupant left, and its
// arrivals are not the joining member's.
func (a *Arrivals) forget(id core.NodeID) {
	for j := 0; j < int(a.packets); j++ {
		a.cells[j*a.stride+int(id)] = unset32
	}
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
// NodeID, with the arrival ledger (ledger.go) in packed bit arrays.
type engine struct {
	opt Options
	// dyn is the run's dynamic scheme view, set only under Options.Churn;
	// churnStep applies membership ops through it.
	dyn    core.DynamicScheme
	n      int
	maxPkt core.Packet // tracking bound for arrivals (window + slack)
	// have is the presence bitset, packet-major: bit id of row p (words
	// uint64s from p·words) is set once node id holds packet p. Rows are
	// packets because a slot moves only a few distinct packets across many
	// nodes, so packet-major turns each slot's ledger traffic into
	// near-sequential walks of a handful of rows; node-major would make
	// every access a random probe at large N. deliver marks a packet's bit in
	// dirtyRows whenever the packet differs from the one it last marked, so
	// the next run clears only the rows this run touched.
	have      []uint64
	words     int      // uint64 words per presence or slot row (= ⌈(n+1)/64⌉)
	dirtyRows []uint64 // bitmap of presence (packet) rows written this run
	// slots is bit id of row t (words uint64s from t·words), set when a
	// window packet reached node id at the end of slot t; a further window
	// packet in the same slot is an overflow entry on the scratch
	// (ledger.go).
	slots []uint64
	// arrivals is Options.Arrivals, the record deliver fills, or nil.
	arrivals *Arrivals
	sendTab  []int32 // per-node send capacities, custom or default
	recvTab  []int32 // per-node receive capacities, custom or default
	// direct marks a run with no Observer, Inject or Churn: nothing outside
	// the engine reads or changes a slot, so runSlots ends the run once the
	// window is complete.
	direct bool
	// pending counts the receivers still missing part of the window: n at run
	// start, one less each time deliver completes a node.
	pending int
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

// newEngine sizes and resets the run's state on the Runner's scratch.
func newEngine(s core.Scheme, opt Options, sc *scratch) (*engine, error) {
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
	if opt.Mode == core.Live && int(maxPkt) > int(opt.Slots) {
		// A live source cannot send packet p before slot p, so no node ever
		// holds a packet numbered Slots or above and those rows can never be
		// written.
		maxPkt = core.Packet(int(opt.Slots))
	}
	if maxPkt < opt.Packets {
		maxPkt = opt.Packets
	}
	// The presence bits hold a row per tracked packet and the slot bits a row
	// per slot; with any source capacity there are at least as many packet
	// rows as slots.
	if satMul(n+1, max(int(maxPkt), int(opt.Slots))) > core.MaxArrivalCells {
		const gib = 1 << 30
		var kept core.Packet
		if opt.Arrivals != nil {
			kept = opt.Packets
		}
		return nil, fmt.Errorf("slotsim: arrival matrix too large: N=%d nodes × %d packet rows would allocate up to %.1f GiB of arrival bits and cells, over the %d-cell ceiling (core.MaxArrivalCells); shorten the horizon (%d slots) or the population",
			n, maxPkt, arrivalBytes(n, maxPkt, opt.Slots, kept)/gib, core.MaxArrivalCells, opt.Slots)
	}
	sc.resetLedger(n, maxPkt, opt.Slots)
	if a := opt.Arrivals; a != nil {
		// A record handed in again is cleared; a fresh one is all zero
		// already, and its pages no arrival reaches (the join headroom of a
		// live-churn run) are never faulted in.
		a.packets, a.stride = opt.Packets, n+1
		if cells := (n + 1) * int(opt.Packets); cap(a.cells) >= cells {
			a.cells = a.cells[:cells]
			clear(a.cells)
		} else {
			a.cells = make([]int32, cells)
		}
	}

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

	sc.eng = engine{
		opt:       opt,
		dyn:       dyn,
		n:         n,
		maxPkt:    maxPkt,
		have:      sc.have,
		words:     sc.words,
		dirtyRows: sc.dirtyRows,
		slots:     sc.slots,
		arrivals:  opt.Arrivals,
		direct:    opt.Observer == nil && opt.Inject == nil && opt.Churn == nil,
		pending:   n,
		sentSt:    sc.sentSt,
		recvSt:    sc.recvSt,
		cursor:    sc.cursor,
		sc:        sc,
		obs:       opt.Observer,
	}
	e := &sc.eng
	// Both send and receive checks read capacity from one table per
	// direction. The default tables are pure functions of (n, srcCap), so
	// repeated runs of same-shaped schemes skip the O(N) refill; a custom
	// CapacityFunc is read into the tables once per run, and the cache is
	// invalidated so that the next default run refills them.
	custom := opt.SendCap != nil || opt.RecvCap != nil
	if custom || sc.tabN != n+1 || sc.tabSrcCap != int32(srcCap) {
		sc.sendTab = fillCaps(grownInt32s(sc.sendTab, n+1), opt.SendCap, int32(srcCap))
		sc.recvTab = fillCaps(grownInt32s(sc.recvTab, n+1), opt.RecvCap, 1)
		sc.tabN, sc.tabSrcCap = n+1, int32(srcCap)
		if custom {
			sc.tabN = 0
		}
	}
	e.sendTab, e.recvTab = sc.sendTab, sc.recvTab
	sc.ring.reset()
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

// fillCaps writes the per-slot capacity of every node id into tab: f(id) when
// f is set, otherwise src for the source and 1 for every receiver.
func fillCaps(tab []int32, f CapacityFunc, src int32) []int32 {
	for i := range tab {
		switch {
		case f != nil:
			tab[i] = int32(f(core.NodeID(i)))
		case i == int(core.SourceID):
			tab[i] = src
		default:
			tab[i] = 1
		}
	}
	return tab
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
		if int32(c) > e.sendTab[tx.From] {
			return &Violation{t, "send capacity exceeded", tx}
		}
		if !e.holds(tx.From, tx.Packet, t) {
			return &Violation{t, "sender does not hold packet", tx}
		}
	}
	return nil
}

// deliver applies arrivals scheduled for the end of slot t and returns how
// many it applied: all of them, or those before the one that broke a
// constraint. A duplicate's index goes to the scratch's dups list. A tracked
// arrival loads its presence word once, to test and set the node's bit, and
// marks its packet's row dirty only when the packet differs from the one last
// marked (a repeated mark changes nothing). A window arrival then sets the
// node's slot bit, or, when the node already took a window packet in this slot
// (only a custom RecvCap allows that), appends an overflow entry; and it is
// written into Options.Arrivals when the run keeps that record. While a
// period check is open (period.go) it also notes the slot's lowest window
// packet arrived and highest packet delivered. Hot slices live in locals,
// kept in registers.
func (e *engine) deliver(t core.Slot, arrivals []core.Transmission) (int, error) {
	tick := e.nextTick()
	recvSt, recvTab, have, cursor := e.recvSt, e.recvTab, e.have, e.cursor
	marked := core.Packet(-1)
	chk, lo, hi := e.sc.cert.open, e.sc.cert.lo, e.sc.cert.hi
	for i, tx := range arrivals {
		id, p := tx.To, tx.Packet
		st := recvSt[id]
		c := uint32(1)
		if uint32(st>>32) == tick {
			c = uint32(st) + 1
		}
		recvSt[id] = uint64(tick)<<32 | uint64(c)
		if int32(c) > recvTab[id] {
			return i, &Violation{t, "receive capacity exceeded", tx}
		}
		if chk && p > hi {
			hi = p
		}
		if id == core.SourceID || p >= e.maxPkt {
			// The source discards incoming packets; packets beyond the
			// tracking horizon only count against capacity.
			continue
		}
		k, bit := int(p)*e.words+int(id)>>6, uint64(1)<<(uint(id)&63)
		w := have[k]
		if w&bit != 0 {
			if !e.opt.AllowDuplicates {
				return i, &Violation{t, "duplicate packet", tx}
			}
			e.sc.dups = append(e.sc.dups, i)
			continue
		}
		have[k] = w | bit
		if p != marked {
			e.dirtyRows[int(p)>>6] |= 1 << (uint(p) & 63)
			marked = p
		}
		if p < e.opt.Packets {
			// A window packet: advance the playback cursor, then book it in
			// the ledger and the record.
			cur := cursor[id]
			got := uint32(cur) + 1
			worst := int32(uint32(cur >> 32))
			if lag := int32(t) - int32(p); lag > worst {
				worst = lag
			}
			cursor[id] = uint64(uint32(worst))<<32 | uint64(got)
			if got == uint32(e.opt.Packets) {
				e.pending--
			}
			if int32(t) > e.sc.maxArr {
				e.sc.maxArr = int32(t)
			}
			if chk && p < lo {
				lo = p
			}
			j := int(t)*e.words + int(id)>>6
			if sw := e.slots[j]; sw&bit == 0 {
				e.slots[j] = sw | bit
			} else {
				e.sc.over = append(e.sc.over, overflow{int32(t), int32(id)})
			}
			if a := e.arrivals; a != nil {
				a.cells[int(p)*a.stride+int(id)] = int32(t) + 1
			}
		}
	}
	e.sc.cert.lo, e.sc.cert.hi = lo, hi
	return len(arrivals), nil
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

// route assigns each validated transmission to its arrival slot, asking the
// Inject hook whether it is lost and how long its link takes, and returns
// the transmissions it routed and the slot's arrivals: what the in-flight
// ring holds for t, then the same-slot (latency 1) transmissions. Later
// arrivals go to the ring, and a lost transmission's index to the scratch's
// lost list. A deterministic Injector sees one schedule-ordered call
// sequence. A link shorter than one slot stops the routing there.
func (e *engine) route(t core.Slot, txs []core.Transmission) (routed, arrivals []core.Transmission, err error) {
	in := e.opt.Inject
	arrivals = e.sc.ring.drain(t, e.sc.arrive[:0])
	for i, tx := range txs {
		if in.DropTx(tx, t) {
			e.sc.lost = append(e.sc.lost, i)
			continue // lost in flight; send capacity already spent
		}
		x := in.DelayTx(tx, t)
		switch {
		case x < 0:
			return txs[:i], nil, fmt.Errorf("slotsim: slot %d: Inject.DelayTx returned %d for %s; a link's latency (1 + delay) must be at least 1",
				t, x, tx)
		case x == 0:
			arrivals = append(arrivals, tx)
		default:
			e.sc.ring.enqueue(t+x, tx)
		}
	}
	e.sc.arrive = arrivals // retain grown capacity for later slots
	return txs, arrivals, nil
}

// step executes one slot and then, if the run is observed, hands the
// observer the slot's view. Without Inject every link takes exactly one slot
// and nothing is lost in flight, so the schedule's own slice is the slot's
// arrival list and the route copy is skipped.
func (e *engine) step(t core.Slot, txs []core.Transmission) error {
	scheduled := len(txs)
	sc := e.sc
	sc.lost, sc.dups = sc.lost[:0], sc.dups[:0]
	txs = e.filterUnavailable(t, txs)
	arrivals := txs
	err := e.validateSends(t, txs)
	switch {
	case err != nil:
		txs, arrivals = nil, nil
	case e.opt.Inject != nil:
		txs, arrivals, err = e.route(t, txs)
	}
	if err == nil {
		var n int
		n, err = e.deliver(t, arrivals)
		arrivals = arrivals[:n]
	}
	if e.obs != nil {
		sc.view = obs.SlotView{T: t, Scheduled: scheduled, Sent: txs, Lost: sc.lost,
			Arrivals: arrivals, Dups: sc.dups, Ended: err == nil}
		if v, ok := err.(*Violation); ok {
			sc.viol = obs.Violation{Kind: v.Kind, Tx: v.Tx}
			sc.view.Violation = &sc.viol
		}
		e.obs.Slot(&sc.view)
	}
	return err
}
