package obs

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/stats"
)

// driveChain feeds a Metrics collector the event stream of a 2-node chain:
// S→1 every slot, 1→2 one slot behind, 5-packet window over 7 slots.
func driveChain(m *Metrics) {
	for t := core.Slot(0); t < 7; t++ {
		var txs []core.Transmission
		if t < 5 {
			txs = append(txs, tx(0, 1, core.Packet(t)))
		}
		if t >= 1 && t < 6 {
			txs = append(txs, tx(1, 2, core.Packet(t-1)))
		}
		m.Slot(&SlotView{T: t, Scheduled: len(txs), Sent: txs, Arrivals: txs, Ended: true})
	}
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	driveChain(m)
	tot := m.Totals()
	if tot.Transmits != 10 || tot.Delivers != 10 || tot.Scheduled != 10 {
		t.Errorf("totals %+v, want 10 transmits/delivers/scheduled", tot)
	}
	if tot.Duplicates != 0 || tot.Drops != 0 || tot.InFlight != 0 {
		t.Errorf("totals %+v, want no duplicates/drops/in-flight", tot)
	}
	if got := len(m.SlotSeries()); got != 7 {
		t.Fatalf("slot series has %d entries, want 7", got)
	}
	s1 := m.SlotSeries()[1]
	if s1.Slot != 1 || s1.Transmits != 2 || s1.Delivers != 2 {
		t.Errorf("slot 1 counters %+v", s1)
	}
	if n := m.Node(1); n.Sends != 5 || n.Receives != 5 {
		t.Errorf("node 1 counters %+v, want 5 sends / 5 receives", n)
	}
	if n := m.Node(2); n.Sends != 0 || n.Receives != 5 {
		t.Errorf("node 2 counters %+v, want 0 sends / 5 receives", n)
	}
	if m.Node(99) != (NodeCounters{}) {
		t.Error("out-of-range node should be zero")
	}
	// Node 1 receives packet p in slot p (lag 0); node 2 in slot p+1 (lag 1).
	h := m.Latency()
	if h.N != 10 || h.Min != 0 || h.Max != 1 {
		t.Errorf("latency hist N/min/max = %d/%g/%g, want 10/0/1", h.N, h.Min, h.Max)
	}
}

func TestMetricsFingerprint(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	driveChain(a)
	driveChain(b)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical runs disagree: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	c := NewMetrics()
	driveChain(c)
	Feed(c,
		Event{Kind: KindSlotStart, Slot: 7, Scheduled: 1},
		Event{Kind: KindTransmit, Slot: 7, Tx: tx(0, 3, 0)},
		Event{Kind: KindSlotEnd, Slot: 7})
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("an extra transmission should change the fingerprint")
	}
}

// TestFingerprintIsFNV1a: the inlined hash, zero-run shortcut included, is
// hash/fnv's FNV-1a over the little-endian (slot, from, to, packet) tuples —
// for small values, negatives (no zero run) and the int64 extremes alike.
func TestFingerprintIsFNV1a(t *testing.T) {
	m, ref := NewMetrics(), fnv.New64a()
	vals := []int{0, 1, 255, 256, 65535, 65536, 1 << 24, 1<<32 - 1, 1 << 32, 1 << 56, -1, -256, math.MinInt64, math.MaxInt64}
	for i, a := range vals {
		for j, b := range vals {
			b = int(uint16(b)) // the sender indexes the per-node table
			c, d := vals[(i+j)%len(vals)], vals[(i*j)%len(vals)]
			m.Slot(&SlotView{T: core.Slot(a), Sent: []core.Transmission{tx(core.NodeID(b), core.NodeID(c), core.Packet(d))}})
			var buf [32]byte
			for k, v := range [4]int{a, b, c, d} {
				for s := 0; s < 8; s++ {
					buf[k*8+s] = byte(uint64(v) >> (8 * s))
				}
			}
			ref.Write(buf[:])
		}
	}
	if got, want := m.Fingerprint(), fmt.Sprintf("fnv1a:%016x", ref.Sum64()); got != want {
		t.Errorf("fingerprint %s, hash/fnv says %s", got, want)
	}
}

func TestMetricsDuplicatesAndDrops(t *testing.T) {
	m := NewMetrics()
	Feed(m,
		Event{Kind: KindSlotStart, Slot: 0, Scheduled: 3},
		Event{Kind: KindTransmit, Slot: 0, Tx: tx(0, 1, 0)},
		Event{Kind: KindDrop, Slot: 0, Tx: tx(2, 3, 0)},
		Event{Kind: KindDeliver, Slot: 0, Tx: tx(0, 1, 0)},
		Event{Kind: KindDeliver, Slot: 0, Tx: tx(2, 1, 0), Dup: true},
		Event{Kind: KindSlotEnd, Slot: 0})
	tot := m.Totals()
	if tot.Duplicates != 1 || tot.Drops != 1 {
		t.Errorf("totals %+v, want 1 duplicate and 1 drop", tot)
	}
	if n := m.Node(1); n.Duplicates != 1 {
		t.Errorf("node 1 duplicates = %d, want 1", n.Duplicates)
	}
	if n := m.Node(2); n.Drops != 1 {
		t.Errorf("node 2 drops = %d, want 1", n.Drops)
	}
	// The duplicate must not count toward latency or occupancy.
	if m.Latency().N != 1 {
		t.Errorf("latency N = %d, want 1", m.Latency().N)
	}
}

// TestLatencyFoldMidRun: Metrics counts lags and folds them into the
// histogram when Latency is read. A read mid-run followed by more deliveries
// and a second read must equal one read at the end, and both must equal the
// histogram Observe builds delivery by delivery. Early arrivals of a
// pre-recorded stream (packet ahead of the slot) stay out, and lags past the
// last bound land in the +Inf bucket.
func TestLatencyFoldMidRun(t *testing.T) {
	mid, end := NewMetrics(), NewMetrics()
	ref := stats.NewStreamingHist(DefaultLatencyBounds())
	rng := rand.New(rand.NewSource(34))
	for slot := core.Slot(0); slot < 6000; slot += core.Slot(1 + rng.Intn(40)) {
		v := SlotView{T: slot, Ended: true}
		for k := rng.Intn(6); k > 0; k-- {
			x := tx(0, core.NodeID(1+rng.Intn(50)), core.Packet(rng.Intn(int(slot)+20)))
			dup := rng.Intn(8) == 0
			if dup {
				v.Dups = append(v.Dups, len(v.Arrivals))
			}
			v.Arrivals = append(v.Arrivals, x)
			if lag := float64(slot) - float64(x.Packet); !dup && lag >= 0 {
				ref.Observe(lag)
			}
		}
		for _, m := range []*Metrics{mid, end} {
			m.Slot(&v)
		}
		if slot >= 3000 && mid.Latency().N == 0 {
			t.Fatal("mid-run read saw no deliveries")
		}
	}
	first := *mid.Latency()
	if !reflect.DeepEqual(first, *mid.Latency()) {
		t.Error("a second read without new deliveries changed the histogram")
	}
	if got, want := *mid.Latency(), *end.Latency(); !reflect.DeepEqual(got, want) {
		t.Errorf("read mid-run then at the end: %+v\nread once at the end: %+v", got, want)
	}
	if got, want := *end.Latency(), *ref; !reflect.DeepEqual(got, want) {
		t.Errorf("folded lag counts: %+v\nObserve per delivery: %+v", got, want)
	}
	if ref.Counts[len(ref.Bounds)] == 0 || ref.N == 0 {
		t.Errorf("the stream should reach the +Inf bucket: %+v", ref)
	}
}

// TestMetricsAllocs: once a node id has been seen, a slot that extends no
// series — sends and drops, and no arrival or end — must not allocate; the
// fingerprint update in particular is a register loop, not a hash.Hash
// call with an escaping buffer.
func TestMetricsAllocs(t *testing.T) {
	m := NewMetrics()
	x := tx(7, 9, 3)
	v := SlotView{Scheduled: 2, Sent: []core.Transmission{x, x}, Lost: []int{1}}
	m.Slot(&v) // first sight of the ids grows the per-node table
	if n := testing.AllocsPerRun(1000, func() {
		v.T++
		m.Slot(&v)
	}); n != 0 {
		t.Errorf("Metrics.Slot of sends and drops allocates %v times per slot, want 0", n)
	}
}
