package obs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"streamcast/internal/core"
)

// Views groups an event stream into the slot views whose event streams it
// is, taking from each event only the fields its kind carries, as a view
// does. ok is false when no sequence of views has that stream: an event out
// of the slot-start, sends, arrivals, violation-or-end order, or in a slot
// other than the one its view opened.
func Views(evs []Event) (views []SlotView, ok bool) {
	for i := 0; i < len(evs); {
		if evs[i].Kind != KindSlotStart {
			return nil, false
		}
		v := SlotView{T: evs[i].Slot, Scheduled: evs[i].Scheduled}
		at := func(kinds ...Kind) bool {
			return i < len(evs) && evs[i].Slot == v.T && slices.Contains(kinds, evs[i].Kind)
		}
		for i++; at(KindTransmit, KindDrop); i++ {
			if evs[i].Kind == KindDrop {
				v.Lost = append(v.Lost, len(v.Sent))
			}
			v.Sent = append(v.Sent, evs[i].Tx)
		}
		for ; at(KindDeliver); i++ {
			if evs[i].Dup {
				v.Dups = append(v.Dups, len(v.Arrivals))
			}
			v.Arrivals = append(v.Arrivals, evs[i].Tx)
		}
		switch {
		case at(KindViolation):
			v.Violation = &Violation{Kind: evs[i].Note, Tx: evs[i].Tx}
			i++
		case at(KindSlotEnd):
			v.Ended = true
			i++
		}
		views = append(views, v)
	}
	return views, true
}

// Feed hands o the views of an event stream, one Slot call each. It panics
// when no views have that stream.
func Feed(o Observer, evs ...Event) {
	views, ok := Views(evs)
	if !ok {
		panic(fmt.Sprintf("obs: no slot views have the event stream %v", evs))
	}
	for i := range views {
		o.Slot(&views[i])
	}
}

// hostileNotes are violation kinds chosen to exercise every branch of JSON
// string escaping: quotes, backslashes, HTML-sensitive bytes, the JS line
// separators, control bytes and invalid UTF-8.
var hostileNotes = []string{
	"",
	"duplicate packet",
	`say "hi"`,
	`back\slash\\`,
	"<script>&amp;</script>",
	"line\u2028sep\u2029end",
	"ctl\x00\x01\x1f\x7f",
	"tab\tnl\ncr\r",
	"bad\xff\xfeutf8",
	"\xc3\x28",
	"日本語 é",
}

// encoderEdges are the values at the edges of the encoder's number paths:
// zero (omitted), the digit table's decimal-length steps and its end, where
// strconv takes over, negatives and the int64 extremes.
var encoderEdges = []int{
	0, 9, 10, 99, 100,
	digitTableMax - 1, digitTableMax, digitTableMax + 1,
	-1, -10, math.MinInt64, math.MaxInt64,
}

// OracleEvents returns the event stream of about n seeded slot views. The
// first views put each of encoderEdges in every numeric field of every kind
// of line; the rest draw their fields from the values the encoder treats
// specially — zero, negatives, the int64 extremes — and their violation
// notes from the hostile ones, with any mix of lost sends, duplicate
// arrivals, violations and unended slots. The fuzz corpus and the encoder
// oracle test share it.
func OracleEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	num := func() int {
		switch rng.Intn(9) {
		case 0:
			return 0
		case 1:
			return -1 - rng.Intn(1000)
		case 2:
			return math.MinInt64
		case 3:
			return math.MaxInt64
		case 4:
			return encoderEdges[rng.Intn(len(encoderEdges))]
		default:
			return rng.Intn(100000)
		}
	}
	var evs []Event
	for i := 0; len(evs) < n; i++ {
		if i < len(encoderEdges) {
			v := encoderEdges[i]
			x := tx(core.NodeID(v), core.NodeID(v), core.Packet(v))
			view := SlotView{T: core.Slot(v), Scheduled: v,
				Sent: []core.Transmission{x, x}, Lost: []int{1},
				Arrivals: []core.Transmission{x, x}, Dups: []int{i % 2}}
			if i%2 == 0 {
				view.Violation = &Violation{Kind: hostileNotes[i%len(hostileNotes)], Tx: x}
			} else {
				view.Ended = true
			}
			evs = view.AppendEvents(evs)
			continue
		}
		view := SlotView{T: core.Slot(num()), Scheduled: num(), Ended: rng.Intn(4) != 0}
		for k := rng.Intn(6); k > 0; k-- {
			if rng.Intn(3) == 0 {
				view.Lost = append(view.Lost, len(view.Sent))
			}
			view.Sent = append(view.Sent, tx(core.NodeID(num()), core.NodeID(num()), core.Packet(num())))
		}
		for k := rng.Intn(6); k > 0; k-- {
			if rng.Intn(3) == 0 {
				view.Dups = append(view.Dups, len(view.Arrivals))
			}
			view.Arrivals = append(view.Arrivals, tx(core.NodeID(num()), core.NodeID(num()), core.Packet(num())))
		}
		if rng.Intn(8) == 0 {
			view.Ended = false
			view.Violation = &Violation{Kind: hostileNotes[rng.Intn(len(hostileNotes))],
				Tx: tx(core.NodeID(num()), core.NodeID(num()), core.Packet(num()))}
		}
		evs = view.AppendEvents(evs)
	}
	return evs
}

// ArrivalRecord is one entry of the Metrics arrival log.
type ArrivalRecord = arrival

// eachArrival calls fn for every logged delivery, in log order, with the slot
// its run says it was delivered in.
func (m *Metrics) eachArrival(fn func(node, pkt int32, slot core.Slot)) {
	i, r := 0, 0
	for _, chunk := range m.arrivals {
		for _, a := range chunk {
			if i == m.runs[r].end {
				r++
			}
			i++
			fn(a.node, a.pkt, m.runs[r].slot)
		}
	}
}

// rawOccupancy is each node's held-minus-played count at the end of every
// slot, before the clamp at zero, and the packets it held by then: rows
// indexed [node][slot] with slots 0..lastSlot, all-zero beyond len(start)−1.
func (m *Metrics) rawOccupancy(start []core.Slot, window core.Packet) (occ, held [][]int) {
	slots := int(m.lastSlot) + 1
	rows := func() [][]int {
		flat := make([]int, len(m.nodes)*slots)
		out := make([][]int, len(m.nodes))
		for id := range out {
			out[id] = flat[id*slots : (id+1)*slots : (id+1)*slots]
		}
		return out
	}
	occ, held = rows(), rows()
	// One counting pass buckets the log into arrivals per (node, slot),
	// using the output rows themselves as the buckets.
	m.eachArrival(func(node, pkt int32, slot core.Slot) {
		if int(node) >= len(start) || int(pkt) >= int(window) || int(slot) >= slots {
			return
		}
		occ[node][slot]++
	})
	// Each row then turns into packets held so far minus packets already
	// played back.
	for id, row := range occ {
		if id >= len(start) {
			break
		}
		have := 0
		for t := range row {
			have += row[t]
			played := min(max(t-int(start[id]), 0), int(window))
			row[t], held[id][t] = have-played, have
		}
	}
	return occ, held
}

// OccupancySeries is the reference the buffer fold is held to: each node's
// buffer occupancy at the end of every slot, derived from the recorded
// arrivals by materializing the whole nodes × slots matrix. Rows beyond
// len(start)−1 or without arrivals are all-zero. The per-node maximum of the
// series equals the engine's Result.MaxBuffer.
func (m *Metrics) OccupancySeries(start []core.Slot, window core.Packet) [][]int {
	out, _ := m.rawOccupancy(start, window)
	for _, row := range out {
		for t, v := range row {
			row[t] = max(v, 0)
		}
	}
	return out
}

// Underflows counts the (receiver, slot) cells in which a receiver holding
// packets has played more window packets than it holds — late or missing
// ones — so that OccupancySeries clamps its occupancy at zero.
func (m *Metrics) Underflows(start []core.Slot, window core.Packet) int {
	occ, held := m.rawOccupancy(start, window)
	n := 0
	for id := 1; id < len(occ); id++ {
		for t, v := range occ[id] {
			if v < 0 && held[id][t] > 0 {
				n++
			}
		}
	}
	return n
}
