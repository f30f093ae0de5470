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
// per-node totals, a streaming histogram of per-packet delivery latency, and
// an FNV-1a fingerprint of the executed schedule. It retains one record per
// slot, one per node id and one count per delivery lag, so its memory grows
// with the slots and the ids of a run, not with its deliveries.
//
// A delivery's lag is an integer number of slots, so Slot only counts it
// in a table indexed by lag (O(slots) entries); Latency folds the pending
// counts into the histogram when it is read.
//
// The zero value is not usable; call NewMetrics.
type Metrics struct {
	slots    []SlotCounters
	inFlight int
	nodes    []NodeCounters

	latency *stats.StreamingHist
	// lags[l] counts the deliveries with lag l not yet folded into latency.
	lags       []int
	hash       uint64
	violations int // slots that stopped the run on a broken constraint
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

// Slot implements Observer: it counts the slot, hashes its transmissions
// into the fingerprint and counts its arrivals' lags. A slot that stopped
// the run counts toward every total but opens no entry of the slot series.
func (m *Metrics) Slot(v *SlotView) {
	t := v.T
	c := SlotCounters{Slot: t, Scheduled: v.Scheduled}
	if t > m.lastSlot {
		m.lastSlot = t
	}
	h, lost := m.hash, v.Lost
	for i, tx := range v.Sent {
		m.grow(tx.From)
		if len(lost) > 0 && lost[0] == i {
			lost = lost[1:]
			c.Drops++
			m.nodes[tx.From].Drops++
			continue
		}
		c.Transmits++
		m.nodes[tx.From].Sends++
		h = fnvMix(h, int(t))
		h = fnvMix(h, int(tx.From))
		h = fnvMix(h, int(tx.To))
		h = fnvMix(h, int(tx.Packet))
	}
	m.hash = h
	dups := v.Dups
	for i, tx := range v.Arrivals {
		m.grow(tx.To)
		m.nodes[tx.To].Receives++
		if len(dups) > 0 && dups[0] == i {
			dups = dups[1:]
			c.Duplicates++
			m.nodes[tx.To].Duplicates++
			continue
		}
		if lag := int(t) - int(tx.Packet); lag >= 0 {
			if lag >= len(m.lags) {
				m.lags = append(m.lags, make([]int, lag+1-len(m.lags))...)
			}
			m.lags[lag]++
		}
	}
	c.Delivers = len(v.Arrivals)
	m.inFlight += c.Transmits - c.Delivers
	if v.Violation != nil {
		m.violations++
	}
	if v.Ended {
		c.InFlight = m.inFlight
		m.slots = append(m.slots, c)
	}
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
// slots (how far the packet arrived behind the stream head). It first folds
// the lag counts gathered since the last read into the histogram, so a read
// mid-run and another at the end count every delivery once. The folded Sum
// adds integers below 2^53, so it is exact in any order.
func (m *Metrics) Latency() *stats.StreamingHist {
	for lag, c := range m.lags {
		if c > 0 {
			m.latency.ObserveN(float64(lag), c)
			m.lags[lag] = 0
		}
	}
	return m.latency
}

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
