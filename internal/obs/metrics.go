package obs

import (
	"fmt"

	"streamcast/internal/core"
	"streamcast/internal/stats"
)

// SlotCounters are the per-slot totals the Metrics observer accumulates.
type SlotCounters struct {
	Slot core.Slot
	// Scheduled is the number of transmissions the scheme emitted.
	Scheduled int
	// Transmits counts validated sends leaving their sender this slot.
	Transmits int
	// Delivers counts arrivals at the end of the slot (duplicates and
	// discarded source-bound arrivals included).
	Delivers int
	// Duplicates counts arrivals of already-held packets.
	Duplicates int
	// Drops counts transmissions lost to failure injection.
	Drops int
	// InFlight is the number of packets sent but not yet arrived at the
	// end of the slot (non-zero only when some link latency exceeds 1).
	InFlight int
}

// NodeCounters are per-node event totals.
type NodeCounters struct {
	Sends, Receives, Duplicates, Drops int
}

// arrival is one booked packet delivery at a node, held at the width the
// engine itself keeps arrivals at (its arrival matrix is int32): twelve
// bytes per non-duplicate delivery is what a Metrics run retains most of.
type arrival struct {
	node, pkt, slot int32
}

// arrivalChunkMin is the capacity of the arrival log's first chunk; each
// later chunk is a quarter larger than the one before it.
const arrivalChunkMin = 1024

// FNV-1a 64-bit parameters (hash/fnv's), inlined so the per-transmission
// fingerprint update is a register loop rather than an interface call.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvZeroRun[k] is fnvPrime64^k (mod 2^64): folding k zero bytes into an
// FNV-1a state only multiplies it by the prime k times.
var fnvZeroRun = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime64
	}
	return pow
}()

// fnvMix folds the eight little-endian bytes of v into the FNV-1a state h.
// Ids, slots and packets are small, so most of those bytes are a run of
// high zeros, folded in one multiplication; the result is hash/fnv's.
func fnvMix(h uint64, v int) uint64 {
	u, left := uint64(v), 8
	for ; u != 0; left-- {
		h = (h ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	return h * fnvZeroRun[left]
}

// Metrics is the standard collecting Observer: per-slot counter series,
// per-node totals, one log of arrivals (from which buffer-occupancy
// time-series are derived), a streaming histogram of per-packet delivery
// latency, and an FNV-1a fingerprint of the executed schedule. It retains
// one record per slot, one per node and one per non-duplicate delivery, so
// its memory grows with the event count, not only with N.
//
// The zero value is not usable; call NewMetrics.
type Metrics struct {
	slots    []SlotCounters
	cur      SlotCounters
	open     bool
	inFlight int

	nodes []NodeCounters
	// arrivals logs every non-duplicate delivery in event order, as chunks
	// that fill once and never move: growing the log allocates
	// O(log arrivals) times and copies nothing. OccupancySeries buckets it
	// by node and slot on demand.
	arrivals [][]arrival

	latency    *stats.StreamingHist
	hash       uint64
	violations []Event
	lastSlot   core.Slot
}

// DefaultLatencyBounds are the delivery-latency histogram bucket bounds in
// slots: exponential, 1..4096.
func DefaultLatencyBounds() []float64 { return stats.ExponentialBounds(1, 2, 13) }

// NewMetrics returns an empty collector with the default latency buckets.
func NewMetrics() *Metrics {
	return &Metrics{
		latency: stats.NewStreamingHist(DefaultLatencyBounds()),
		hash:    fnvOffset64,
	}
}

// grow ensures per-node storage covers id, extending it in one step.
func (m *Metrics) grow(id core.NodeID) {
	if n := int(id) + 1; n > len(m.nodes) {
		m.nodes = append(m.nodes, make([]NodeCounters, n-len(m.nodes))...)
	}
}

// SlotStart implements Observer.
func (m *Metrics) SlotStart(t core.Slot, scheduled int) {
	m.cur = SlotCounters{Slot: t, Scheduled: scheduled}
	m.open = true
	if t > m.lastSlot {
		m.lastSlot = t
	}
}

// Transmit implements Observer.
func (m *Metrics) Transmit(t core.Slot, tx core.Transmission) {
	m.cur.Transmits++
	m.inFlight++
	m.grow(tx.From)
	m.nodes[tx.From].Sends++
	h := fnvMix(m.hash, int(t))
	h = fnvMix(h, int(tx.From))
	h = fnvMix(h, int(tx.To))
	m.hash = fnvMix(h, int(tx.Packet))
}

// Deliver implements Observer.
func (m *Metrics) Deliver(t core.Slot, tx core.Transmission, duplicate bool) {
	m.cur.Delivers++
	m.inFlight--
	m.grow(tx.To)
	m.nodes[tx.To].Receives++
	if duplicate {
		m.cur.Duplicates++
		m.nodes[tx.To].Duplicates++
		return
	}
	last := len(m.arrivals) - 1
	if last < 0 {
		m.arrivals = append(m.arrivals, make([]arrival, 0, arrivalChunkMin))
		last++
	} else if c := cap(m.arrivals[last]); len(m.arrivals[last]) == c {
		m.arrivals = append(m.arrivals, make([]arrival, 0, c+c/4))
		last++
	}
	m.arrivals[last] = append(m.arrivals[last], arrival{node: int32(tx.To), pkt: int32(tx.Packet), slot: int32(t)})
	if lag := float64(t) - float64(tx.Packet); lag >= 0 {
		m.latency.Observe(lag)
	}
}

// Drop implements Observer.
func (m *Metrics) Drop(t core.Slot, tx core.Transmission) {
	m.cur.Drops++
	m.grow(tx.From)
	m.nodes[tx.From].Drops++
}

// Violation implements Observer.
func (m *Metrics) Violation(t core.Slot, kind string, tx core.Transmission) {
	m.violations = append(m.violations, Event{Kind: KindViolation, Slot: t, Tx: tx, Note: kind})
}

// SlotEnd implements Observer.
func (m *Metrics) SlotEnd(t core.Slot) {
	m.cur.InFlight = m.inFlight
	m.slots = append(m.slots, m.cur)
	m.open = false
}

// SlotSeries returns the per-slot counter series, one entry per completed
// slot in slot order.
func (m *Metrics) SlotSeries() []SlotCounters { return m.slots }

// NodeCount returns the number of node ids seen (source included).
func (m *Metrics) NodeCount() int { return len(m.nodes) }

// Node returns the totals of one node (zero value beyond NodeCount).
func (m *Metrics) Node(id core.NodeID) NodeCounters {
	if int(id) >= len(m.nodes) {
		return NodeCounters{}
	}
	return m.nodes[id]
}

// Latency returns the streaming histogram of per-packet delivery latency:
// for each non-duplicate delivery of packet p at slot t, the lag t − p in
// slots (how far the packet arrived behind the stream head).
func (m *Metrics) Latency() *stats.StreamingHist { return m.latency }

// Violations returns the recorded violation events (at most one per run).
func (m *Metrics) Violations() []Event { return m.violations }

// Fingerprint returns the FNV-1a hash over every transmitted
// (slot, from, to, packet) tuple in order — a scheme-and-schedule identity
// that two runs share iff the engine executed the same transmissions.
func (m *Metrics) Fingerprint() string {
	return fmt.Sprintf("fnv1a:%016x", m.hash)
}

// Totals sums the slot series.
func (m *Metrics) Totals() SlotCounters {
	var tot SlotCounters
	for _, s := range m.slots {
		tot.Scheduled += s.Scheduled
		tot.Transmits += s.Transmits
		tot.Delivers += s.Delivers
		tot.Duplicates += s.Duplicates
		tot.Drops += s.Drops
	}
	tot.Slot = m.lastSlot
	tot.InFlight = m.inFlight
	return tot
}

// OccupancySeries derives each node's buffer occupancy at the end of every
// slot from the recorded arrivals, under the engine's playback model:
// packet j (within the measurement window) occupies node id's buffer from
// the end of its arrival slot through the end of slot start[id]+j, its
// playback slot. The result is indexed [node][slot] with slots 0..lastSlot;
// rows beyond len(start)-1 or without arrivals are all-zero. The per-node
// maximum of the series equals the engine's Result.MaxBuffer.
func (m *Metrics) OccupancySeries(start []core.Slot, window core.Packet) [][]int {
	slots := int(m.lastSlot) + 1
	flat := make([]int, len(m.nodes)*slots)
	out := make([][]int, len(m.nodes))
	for id := range out {
		out[id] = flat[id*slots : (id+1)*slots : (id+1)*slots]
	}
	// One counting pass buckets the log into arrivals per (node, slot),
	// using the output rows themselves as the buckets.
	for _, chunk := range m.arrivals {
		for _, a := range chunk {
			if int(a.node) >= len(start) || int(a.pkt) >= int(window) || int(a.slot) >= slots {
				continue
			}
			out[a.node][a.slot]++
		}
	}
	// Each row then turns into occupancy in place: packets held so far
	// minus packets already played back.
	for id, row := range out {
		if id >= len(start) {
			break
		}
		have := 0
		for t := range row {
			have += row[t]
			played := t - int(start[id])
			if played < 0 {
				played = 0
			}
			if played > int(window) {
				played = int(window)
			}
			row[t] = max(have-played, 0)
		}
	}
	return out
}
