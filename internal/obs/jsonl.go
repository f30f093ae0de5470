package obs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"streamcast/internal/core"
)

// jsonEvent is the wire form of one Event: single-line JSON with short
// keys, omitting fields that do not apply to the event kind.
type jsonEvent struct {
	Ev   string      `json:"ev"`
	T    core.Slot   `json:"t"`
	N    int         `json:"n,omitempty"`
	From core.NodeID `json:"from,omitempty"`
	To   core.NodeID `json:"to,omitempty"`
	P    core.Packet `json:"p,omitempty"`
	Dup  bool        `json:"dup,omitempty"`
	Kind string      `json:"kind,omitempty"`
}

// hasTx reports whether the event kind carries a transmission.
func hasTx(k Kind) bool {
	switch k {
	case KindTransmit, KindDeliver, KindDrop, KindViolation:
		return true
	}
	return false
}

// jsonlBufSize is the encoder's buffer. A multi-megabyte trace is written
// in buffer-sized chunks, so the size sets the write(2) count of a run.
const jsonlBufSize = 256 << 10

// jsonlMaxLine bounds the buffer room one line may touch. A line without a
// violation note stays under 150 bytes (the longest opening, four 20-byte
// integers with their keys, "dup":true), and the encoder's fixed-width
// stores, a 48-byte opening and 8-byte words, reach at most 8 bytes past it.
const jsonlMaxLine = 192

// A writer copies each slot into a batch, up to jsonlBatchTxs transmissions
// and jsonlBatchSlots slot parts, and hands full batches to its encoder; a
// slot that does not fit continues in the next batch. It never owns more
// than jsonlBatches batches: one filling, one encoding, one queued between
// them, ≈ 0.8 MB in all. Together they must hold more than one slot: the
// engine reports the ≈ 16 000 events of a slot of the benchmark's `observed`
// shape in one call, and with less room the encoder, having caught up, sits
// idle while the engine computes the next slot.
const (
	jsonlBatchTxs   = 8192
	jsonlBatchSlots = 1024
	jsonlBatches    = 3
)

// digitTableMax caps the encoder's digit table: values in [0, digitTableMax)
// — ids, slots, packets and schedule sizes of any run the CLI can hold —
// are copied from it, everything else goes through strconv.
const digitTableMax = 1 << 17

// JSONLWriter is an Observer that appends one JSON object per event to an
// io.Writer — a compact, replayable event log (see ReadEvents). Call Flush
// when the run finishes, failed or not. The first write error is retained
// and returned by Flush; subsequent events are discarded.
//
// Slot only copies the view into a batch. Full batches go to an encoder
// goroutine, started at the first handoff, which expands them into lines
// and writes the io.Writer until Flush hands over the last partial batch
// and joins it; a writer never flushed leaves that goroutine blocked. A
// writer may be reused after Flush; its next handoff starts a new encoder.
//
// The wire format is byte-stable: every line equals
// json.Marshal(jsonEvent{…}) of the same event, which
// TestAppendEncoderMatchesMarshal pins.
type JSONLWriter struct {
	// enc belongs to the encoder goroutine while one runs (full != nil).
	enc  jsonlEncoder
	cur  *jsonlBatch
	free chan *jsonlBatch // empty batches, the encoder's back for reuse
	full chan *jsonlBatch // batches to encode; nil while no encoder runs
	done chan struct{}
}

// jsonlSlot is one slot's part of a batch. Its transmissions are the batch's
// next sent+arr entries of txs, the sent ones first. open marks the slot's
// first part, which starts with the slot line; viol and end mark its last,
// which ends with the violation line (the batch's next entry of viols) or
// the end line.
type jsonlSlot struct {
	t               core.Slot
	scheduled       int
	sent, arr       int32
	open, viol, end bool
}

// jsonlBatch is the unit handed from Slot to the encoder: copies of the
// views, without pointers apart from the violation notes, so batches are
// cheap to pass between cores and the collector never scans them. marks
// lists, ascending, the positions in txs of lost sends and duplicate
// arrivals; a position is one or the other by the part it falls in.
type jsonlBatch struct {
	slots []jsonlSlot
	txs   []core.Transmission
	marks []int32
	viols []Violation
}

func newJSONLBatch() *jsonlBatch {
	return &jsonlBatch{
		slots: make([]jsonlSlot, 0, jsonlBatchSlots),
		txs:   make([]core.Transmission, 0, jsonlBatchTxs),
		marks: make([]int32, 0, jsonlBatchTxs),
	}
}

// reset empties the batch for reuse.
func (b *jsonlBatch) reset() {
	b.slots, b.txs, b.marks, b.viols = b.slots[:0], b.txs[:0], b.marks[:0], b.viols[:0]
}

// NewJSONLWriter wraps w in a batched JSONL event sink.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	j := &JSONLWriter{
		enc:  jsonlEncoder{w: w, buf: make([]byte, jsonlBufSize)},
		cur:  newJSONLBatch(),
		free: make(chan *jsonlBatch, jsonlBatches),
	}
	for range jsonlBatches - 1 {
		j.free <- newJSONLBatch()
	}
	j.enc.setHeads(0)
	return j
}

// Slot implements Observer: it copies the view into the current batch,
// continuing in the next batch wherever this one is full.
func (j *JSONLWriter) Slot(v *SlotView) {
	si, ai, li, di := 0, 0, 0, 0 // Sent, Arrivals, Lost and Dups copied so far
	for open := true; ; open = false {
		b := j.cur
		if len(b.slots) == jsonlBatchSlots || len(b.txs) == jsonlBatchTxs && si+ai < len(v.Sent)+len(v.Arrivals) {
			j.handoff()
			b = j.cur
		}
		room := jsonlBatchTxs - len(b.txs)
		ns := min(len(v.Sent)-si, room)
		na := min(len(v.Arrivals)-ai, room-ns)
		base := int32(len(b.txs) - si)
		b.txs = append(b.txs, v.Sent[si:si+ns]...)
		for si += ns; li < len(v.Lost) && v.Lost[li] < si; li++ {
			b.marks = append(b.marks, base+int32(v.Lost[li]))
		}
		base = int32(len(b.txs) - ai)
		b.txs = append(b.txs, v.Arrivals[ai:ai+na]...)
		for ai += na; di < len(v.Dups) && v.Dups[di] < ai; di++ {
			b.marks = append(b.marks, base+int32(v.Dups[di]))
		}
		part := jsonlSlot{t: v.T, scheduled: v.Scheduled, sent: int32(ns), arr: int32(na), open: open}
		last := si == len(v.Sent) && ai == len(v.Arrivals)
		if last {
			part.end = v.Ended
			if part.viol = v.Violation != nil; part.viol {
				b.viols = append(b.viols, *v.Violation)
			}
		}
		b.slots = append(b.slots, part)
		if last {
			return
		}
	}
}

// handoff queues the full batch for the encoder, starting one if none
// runs, and waits for an empty batch.
func (j *JSONLWriter) handoff() {
	if j.full == nil {
		// Both channels hold every batch there is, so no send ever blocks:
		// the producer waits only for a free batch, the encoder for work.
		j.full, j.done = make(chan *jsonlBatch, jsonlBatches), make(chan struct{})
		go j.enc.run(j.full, j.free, j.done)
	}
	j.full <- j.cur
	j.cur = <-j.free
}

// Flush encodes every recorded event, joins the encoder goroutine, drains
// the buffer and returns the first error encountered.
func (j *JSONLWriter) Flush() error {
	if j.full == nil {
		j.enc.encode(j.cur)
		j.cur.reset()
	} else {
		j.full <- j.cur
		close(j.full)
		<-j.done
		j.full, j.done = nil, nil
		j.cur = <-j.free
	}
	j.enc.flush()
	return j.enc.err
}

// jsonlEncoder formats recorded events into its buffer and writes the
// buffer to w whenever less than one line's room is left.
type jsonlEncoder struct {
	w   io.Writer
	buf []byte // jsonlBufSize bytes; buf[:n] is pending
	n   int
	err error
	// digits[v] is v's decimal digits packed little-endian into the low
	// bytes, with their count in the top byte; grown on demand up to
	// digitTableMax entries.
	digits []uint64
	// heads[k] opens a line of kind k through the slot number headSlot;
	// the events of one slot share a single formatting of it.
	heads    [KindSlotEnd + 1]jsonlHead
	headSlot core.Slot
}

// jsonlHeadLen fits the longest line opening: `{"ev":"violation","t":`
// and a 20-byte slot number.
const jsonlHeadLen = 48

// jsonlHead is one cached line opening; b[:n] are its bytes.
type jsonlHead struct {
	b [jsonlHeadLen]byte
	n int
}

// jsonlKey is a field's `,"key":` packed into one little-endian word.
type jsonlKey struct {
	w uint64
	n int
}

func packKey(s string) jsonlKey {
	var b [8]byte
	copy(b[:], s)
	return jsonlKey{binary.LittleEndian.Uint64(b[:]), len(s)}
}

var (
	keyN    = packKey(`,"n":`)
	keyFrom = packKey(`,"from":`)
	keyTo   = packKey(`,"to":`)
	keyP    = packKey(`,"p":`)
)

// jsonlKinds opens a line of each kind, up to the slot number.
var jsonlKinds = [...]string{
	KindSlotStart: `{"ev":"slot","t":`,
	KindTransmit:  `{"ev":"tx","t":`,
	KindDeliver:   `{"ev":"rx","t":`,
	KindDrop:      `{"ev":"drop","t":`,
	KindViolation: `{"ev":"violation","t":`,
	KindSlotEnd:   `{"ev":"end","t":`,
}

// run encodes batches until full is closed, returning each to free, then
// closes done.
func (e *jsonlEncoder) run(full <-chan *jsonlBatch, free chan<- *jsonlBatch, done chan<- struct{}) {
	for b := range full {
		e.encode(b)
		b.reset()
		free <- b
	}
	close(done)
}

// encode expands the batch into its lines; after a write has failed it
// discards.
func (e *jsonlEncoder) encode(batch *jsonlBatch) {
	txs, marks, viols := batch.txs, batch.marks, batch.viols
	pos := int32(0) // position in the batch's txs of txs[0]
	for _, s := range batch.slots {
		if s.t != e.headSlot {
			e.setHeads(s.t)
		}
		if s.open {
			e.line(KindSlotStart, s.scheduled, core.Transmission{}, false)
		}
		for _, tx := range txs[:s.sent] {
			k := KindTransmit
			if len(marks) > 0 && marks[0] == pos {
				k, marks = KindDrop, marks[1:]
			}
			e.line(k, 0, tx, false)
			pos++
		}
		for _, tx := range txs[s.sent : s.sent+s.arr] {
			dup := len(marks) > 0 && marks[0] == pos
			if dup {
				marks = marks[1:]
			}
			e.line(KindDeliver, 0, tx, dup)
			pos++
		}
		txs = txs[s.sent+s.arr:]
		if s.viol {
			if e.line(KindViolation, 0, viols[0].Tx, false) {
				e.endWithNote(viols[0].Kind)
			}
			viols = viols[1:]
		}
		if s.end {
			e.line(KindSlotEnd, 0, core.Transmission{}, false)
		}
	}
}

// line stores one line of kind k through the slot number's heads: n for a
// slot line, tx and dup for the kinds that carry a transmission. A violation
// line is left open for its note. It reports false, storing nothing, once a
// write has failed. Each line is stored straight into the buffer, which
// keeps jsonlMaxLine bytes of room ahead of it.
func (e *jsonlEncoder) line(k Kind, n int, tx core.Transmission, dup bool) bool {
	if len(e.buf)-e.n < jsonlMaxLine {
		e.flush()
	}
	if e.err != nil {
		return false
	}
	b := e.buf[e.n:]
	h := &e.heads[k]
	*(*[jsonlHeadLen]byte)(b) = h.b
	p := h.n
	switch k {
	case KindSlotStart:
		p = e.putField(b, p, keyN, n)
	case KindSlotEnd:
	default:
		p = e.putField(b, p, keyFrom, int(tx.From))
		p = e.putField(b, p, keyTo, int(tx.To))
		p = e.putField(b, p, keyP, int(tx.Packet))
		if dup {
			p += copy(b[p:], `,"dup":true`)
		}
		if k == KindViolation {
			e.n += p
			return true
		}
	}
	b[p], b[p+1] = '}', '\n'
	e.n += p + 2
	return true
}

// setHeads formats every kind's line opening for slot t.
func (e *jsonlEncoder) setHeads(t core.Slot) {
	var digits [jsonlHeadLen]byte
	d := e.putInt(digits[:], 0, int(t))
	for k := range e.heads {
		h := &e.heads[k]
		h.n = copy(h.b[:], jsonlKinds[k])
		h.n += copy(h.b[h.n:], digits[:d])
	}
	e.headSlot = t
}

// endWithNote closes the current line with a violation's kind field, which
// jsonEvent omits when empty. A violation ends a run, so encoding/json can
// keep the string escaping from drifting, and the line may be any length.
func (e *jsonlEncoder) endWithNote(note string) {
	tail := []byte("}\n")
	if note != "" {
		q, err := json.Marshal(note)
		if err != nil {
			e.err = err
			return
		}
		tail = append(append([]byte(`,"kind":`), q...), tail...)
	}
	for len(tail) > 0 && e.err == nil {
		if e.n == len(e.buf) {
			e.flush()
		}
		k := copy(e.buf[e.n:], tail)
		e.n, tail = e.n+k, tail[k:]
	}
}

// flush writes the pending bytes to w, retaining the first error.
func (e *jsonlEncoder) flush() {
	if e.err != nil || e.n == 0 {
		return
	}
	n, err := e.w.Write(e.buf[:e.n])
	if err == nil && n < e.n {
		err = io.ErrShortWrite
	}
	e.err, e.n = err, 0
}

// putField stores key and v at b[p:] unless v is zero (jsonEvent's
// omitempty) and returns the position after them.
func (e *jsonlEncoder) putField(b []byte, p int, key jsonlKey, v int) int {
	if v == 0 {
		return p
	}
	binary.LittleEndian.PutUint64(b[p:], key.w)
	return e.putInt(b, p+key.n, v)
}

// putInt stores v in decimal at b[p:] — from the digit table when v is a
// small non-negative value, through strconv otherwise — and returns the
// position after it. A table word is stored whole, so b needs 8 bytes of
// room from p.
func (e *jsonlEncoder) putInt(b []byte, p int, v int) int {
	if uint(v) >= uint(len(e.digits)) {
		if v < 0 || v >= digitTableMax {
			return p + len(strconv.AppendInt(b[p:p], int64(v), 10))
		}
		e.growDigits(v)
	}
	w := e.digits[v]
	binary.LittleEndian.PutUint64(b[p:], w)
	return p + int(w>>56)
}

// growDigits extends the digit table to cover v, doubling its size.
func (e *jsonlEncoder) growDigits(v int) {
	n := max(2*len(e.digits), 1024)
	for n <= v {
		n *= 2
	}
	n = min(n, digitTableMax)
	tab := make([]uint64, n)
	copy(tab, e.digits)
	var buf [8]byte
	for i := len(e.digits); i < n; i++ {
		d := strconv.AppendInt(buf[:0], int64(i), 10)
		var w uint64
		for k, c := range d {
			w |= uint64(c) << (8 * k)
		}
		tab[i] = w | uint64(len(d))<<56
	}
	e.digits = tab
}

// ReadEvents parses a JSONL event log back into Events, inverting
// JSONLWriter. Blank lines are skipped.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		k := KindSlotStart
		for k <= KindSlotEnd && k.String() != je.Ev {
			k++
		}
		if k > KindSlotEnd {
			return nil, fmt.Errorf("obs: line %d: unknown event %q", line, je.Ev)
		}
		e := Event{Kind: k, Slot: je.T, Scheduled: je.N, Dup: je.Dup, Note: je.Kind}
		if hasTx(k) {
			e.Tx = core.Transmission{From: je.From, To: je.To, Packet: je.P}
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
