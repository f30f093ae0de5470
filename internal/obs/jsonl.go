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

// A writer hands events to its encoder jsonlBatchLen at a time and never
// owns more than jsonlBatches batches: one filling, one encoding, one
// queued between them, ≈ 480 KB in all. Each handoff may wake the other
// goroutine, and a woken goroutine can wait tens of microseconds for a
// core: on a two-core host, the traced slot loop of the benchmark's
// `observed` shape took 47 ms with 1 024-event batches, 35.5 ms with these.
const (
	jsonlBatchLen = 4096
	jsonlBatches  = 3
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
// The callbacks only record events into a batch. Full batches go to an
// encoder goroutine, started at the first handoff, which formats the lines
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

// jsonlRecord is one event as the encoder reads it: 40 bytes without
// pointers, so batches are cheap to pass between cores and the collector
// never scans them. a, b, c are a transmission's sender, receiver and
// packet, or a slot start's schedule size in a.
type jsonlRecord struct {
	t       core.Slot
	a, b, c int
	kind    Kind
	dup     bool
}

// jsonlBatch is the unit handed from the callbacks to the encoder.
type jsonlBatch struct {
	recs  []jsonlRecord
	notes []string // the violation notes among recs, in order
}

func newJSONLBatch() *jsonlBatch {
	return &jsonlBatch{recs: make([]jsonlRecord, 0, jsonlBatchLen)}
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

// put records one event, handing the batch over first when it is full. It
// stores field by field: a record built as a composite literal goes through
// the stack, and copying it out stalled on store forwarding, ≈ 10 ns an event.
func (j *JSONLWriter) put(k Kind, t core.Slot, a, b, c int, dup bool) {
	if len(j.cur.recs) == jsonlBatchLen {
		j.handoff()
	}
	recs := j.cur.recs[:len(j.cur.recs)+1]
	r := &recs[len(recs)-1]
	r.t, r.a, r.b, r.c, r.kind, r.dup = t, a, b, c, k, dup
	j.cur.recs = recs
}

// putTx records an event that carries a transmission.
func (j *JSONLWriter) putTx(k Kind, t core.Slot, tx core.Transmission, dup bool) {
	j.put(k, t, int(tx.From), int(tx.To), int(tx.Packet), dup)
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
		j.cur.recs, j.cur.notes = j.cur.recs[:0], j.cur.notes[:0]
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

// SlotStart implements Observer.
func (j *JSONLWriter) SlotStart(t core.Slot, scheduled int) {
	j.put(KindSlotStart, t, scheduled, 0, 0, false)
}

// Transmit implements Observer.
func (j *JSONLWriter) Transmit(t core.Slot, tx core.Transmission) {
	j.putTx(KindTransmit, t, tx, false)
}

// Deliver implements Observer.
func (j *JSONLWriter) Deliver(t core.Slot, tx core.Transmission, duplicate bool) {
	j.putTx(KindDeliver, t, tx, duplicate)
}

// Drop implements Observer.
func (j *JSONLWriter) Drop(t core.Slot, tx core.Transmission) {
	j.putTx(KindDrop, t, tx, false)
}

// Violation implements Observer.
func (j *JSONLWriter) Violation(t core.Slot, kind string, tx core.Transmission) {
	j.putTx(KindViolation, t, tx, false)
	j.cur.notes = append(j.cur.notes, kind)
}

// SlotEnd implements Observer.
func (j *JSONLWriter) SlotEnd(t core.Slot) {
	j.put(KindSlotEnd, t, 0, 0, 0, false)
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
		b.recs, b.notes = b.recs[:0], b.notes[:0]
		free <- b
	}
	close(done)
}

// encode writes one line per record; after a write has failed it discards.
// Each line is stored straight into the buffer, which keeps jsonlMaxLine
// bytes of room ahead of it.
func (e *jsonlEncoder) encode(batch *jsonlBatch) {
	notes := batch.notes
	for i := range batch.recs {
		if len(e.buf)-e.n < jsonlMaxLine {
			e.flush()
		}
		if e.err != nil {
			return
		}
		r := &batch.recs[i]
		if r.t != e.headSlot {
			e.setHeads(r.t)
		}
		b := e.buf[e.n:]
		h := &e.heads[r.kind]
		*(*[jsonlHeadLen]byte)(b) = h.b
		p := h.n
		switch r.kind {
		case KindSlotStart:
			p = e.putField(b, p, keyN, r.a)
		case KindSlotEnd:
		default:
			p = e.putField(b, p, keyFrom, r.a)
			p = e.putField(b, p, keyTo, r.b)
			p = e.putField(b, p, keyP, r.c)
			if r.dup {
				p += copy(b[p:], `,"dup":true`)
			}
			if r.kind == KindViolation {
				e.n += p
				e.endWithNote(notes[0])
				notes = notes[1:]
				continue
			}
		}
		b[p], b[p+1] = '}', '\n'
		e.n += p + 2
	}
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
		var k Kind
		switch je.Ev {
		case "slot":
			k = KindSlotStart
		case "tx":
			k = KindTransmit
		case "rx":
			k = KindDeliver
		case "drop":
			k = KindDrop
		case "violation":
			k = KindViolation
		case "end":
			k = KindSlotEnd
		default:
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
