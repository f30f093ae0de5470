package obs

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"streamcast/internal/core"
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
		m.SlotStart(t, len(txs))
		for _, x := range txs {
			m.Transmit(t, x)
		}
		for _, x := range txs {
			m.Deliver(t, x, false)
		}
		m.SlotEnd(t)
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
	c.SlotStart(7, 1)
	c.Transmit(7, tx(0, 3, 0))
	c.SlotEnd(7)
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
			m.Transmit(core.Slot(a), tx(core.NodeID(b), core.NodeID(c), core.Packet(d)))
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
	m.SlotStart(0, 3)
	m.Transmit(0, tx(0, 1, 0))
	m.Drop(0, tx(2, 3, 0))
	m.Deliver(0, tx(0, 1, 0), false)
	m.Deliver(0, tx(2, 1, 0), true)
	m.SlotEnd(0)
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

func TestOccupancySeries(t *testing.T) {
	m := NewMetrics()
	driveChain(m)
	// start[1]=0, start[2]=1 for the chain; window 5.
	occ := m.OccupancySeries([]core.Slot{0, 0, 1}, 5)
	if len(occ) != 3 {
		t.Fatalf("occupancy has %d rows, want 3", len(occ))
	}
	// Node 1 plays packet j at slot j, the slot it arrives: occupancy 1
	// during the window, 0 after.
	if want := []int{1, 1, 1, 1, 1, 0, 0}; !reflect.DeepEqual(occ[1], want) {
		t.Errorf("node 1 occupancy %v, want %v", occ[1], want)
	}
	// Node 2 receives packet j at slot j+1 and plays it at slot 1+j: also a
	// steady single-packet buffer.
	if want := []int{0, 1, 1, 1, 1, 1, 0}; !reflect.DeepEqual(occ[2], want) {
		t.Errorf("node 2 occupancy %v, want %v", occ[2], want)
	}
	// The source row records no arrivals.
	for _, v := range occ[0] {
		if v != 0 {
			t.Fatalf("source occupancy %v, want zeros", occ[0])
		}
	}
}

func TestOccupancyBurst(t *testing.T) {
	// Three packets land in slot 2 but playback starts at slot 3: the buffer
	// must peak at 3 and drain one per slot (packet j occupies through the
	// end of its playback slot start+j).
	m := NewMetrics()
	for t := core.Slot(0); t < 7; t++ {
		m.SlotStart(t, 0)
		if t == 2 {
			for p := core.Packet(0); p < 3; p++ {
				m.Deliver(t, tx(0, 1, p), false)
			}
		}
		m.SlotEnd(t)
	}
	occ := m.OccupancySeries([]core.Slot{0, 3}, 3)
	if want := []int{0, 0, 3, 3, 2, 1, 0}; !reflect.DeepEqual(occ[1], want) {
		t.Errorf("burst occupancy %v, want %v", occ[1], want)
	}
}

// TestMetricsAllocs: once a node id has been seen, the callbacks that do
// not extend a log — SlotStart, Transmit, Drop — must not allocate; the
// fingerprint update in particular is a register loop, not a hash.Hash
// call with an escaping buffer.
func TestMetricsAllocs(t *testing.T) {
	m := NewMetrics()
	x := tx(7, 9, 3)
	m.Transmit(0, x) // first sight of the ids grows the per-node table
	slot := core.Slot(0)
	if n := testing.AllocsPerRun(1000, func() {
		m.SlotStart(slot, 2)
		m.Transmit(slot, x)
		m.Drop(slot, x)
		slot++
	}); n != 0 {
		t.Errorf("Metrics SlotStart/Transmit/Drop allocate %v times per slot, want 0", n)
	}
}
