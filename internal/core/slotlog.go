package core

// SlotLog is the append-only schedule store of the stateful generators
// (internal/gossip, randreg's pull and push modes): their schedules are
// simulation state, generated once in slot order, and every later read —
// replay by a second engine, an out-of-order probe, a repeated run — must
// observe the identical transmissions. The log keeps each transmission as
// three int32s (half a Transmission; node ids and packet numbers fit with
// room to spare for any population and horizon the engines can hold) in
// fixed-size chunks that fill once and never move, plus one end offset per
// slot, and materialises a slot on demand.
//
// The zero value is an empty log.
type SlotLog struct {
	chunks [][]slotRec // every chunk has len slotLogChunk; records fill them in order
	end    []int       // end[t] = records stored through slot t
}

// slotRec is one stored transmission.
type slotRec struct{ from, to, pkt int32 }

const (
	slotLogShift = 12
	slotLogChunk = 1 << slotLogShift // records per chunk (48 KB)
)

// Len returns the number of slots stored; the next Append is slot Len().
func (l *SlotLog) Len() Slot { return Slot(len(l.end)) }

// Append stores txs as the next slot. The log keeps no reference to txs, so
// the caller may reuse its backing array for the following slot.
func (l *SlotLog) Append(txs []Transmission) {
	n := 0
	if len(l.end) > 0 {
		n = l.end[len(l.end)-1]
	}
	for _, tx := range txs {
		if n>>slotLogShift == len(l.chunks) {
			l.chunks = append(l.chunks, make([]slotRec, slotLogChunk))
		}
		l.chunks[n>>slotLogShift][n&(slotLogChunk-1)] = slotRec{int32(tx.From), int32(tx.To), int32(tx.Packet)}
		n++
	}
	l.end = append(l.end, n)
}

// Transmissions returns slot t as a fresh slice of exactly its length — the
// caller owns it, and later Appends never touch it — or nil for a slot with
// no transmissions. t must be below Len().
func (l *SlotLog) Transmissions(t Slot) []Transmission {
	lo := 0
	if t > 0 {
		lo = l.end[t-1]
	}
	hi := l.end[t]
	if lo == hi {
		return nil
	}
	out := make([]Transmission, hi-lo)
	for i := range out {
		r := l.chunks[(lo+i)>>slotLogShift][(lo+i)&(slotLogChunk-1)]
		out[i] = Transmission{From: NodeID(r.from), To: NodeID(r.to), Packet: Packet(r.pkt)}
	}
	return out
}
