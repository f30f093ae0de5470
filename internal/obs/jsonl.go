package obs

import (
	"bufio"
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

// jsonlBufSize is the writer's buffer. A multi-megabyte trace is written
// in buffer-sized chunks, so the size sets the write(2) count of a run.
const jsonlBufSize = 256 << 10

// jsonlMaxLine bounds the encoded length of any event without a violation
// note: the longest head, four 20-byte integers with their keys and
// "dup":true stay under 150 bytes.
const jsonlMaxLine = 192

// JSONLWriter is an Observer that appends one JSON object per event to an
// io.Writer — a compact, replayable event log (see ReadEvents). Writes are
// buffered; call Flush when the run finishes. The first write error is
// retained and returned by Flush; subsequent events are discarded.
//
// The wire format is byte-stable: every line equals
// json.Marshal(jsonEvent{…}) of the same event, which
// TestAppendEncoderMatchesMarshal pins.
type JSONLWriter struct {
	bw  *bufio.Writer
	err error
}

// NewJSONLWriter wraps w in a buffered JSONL event sink.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriterSize(w, jsonlBufSize)}
}

// appendField appends key and v unless v is zero (jsonEvent's omitempty).
func appendField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// begin reserves room for one event line and opens it with head, the
// constant `{"ev":"<kind>","t":` of the event's kind, and the slot. It
// returns nil once a write has failed.
func (j *JSONLWriter) begin(head string, t core.Slot) []byte {
	if j.err != nil {
		return nil
	}
	if j.bw.Available() < jsonlMaxLine {
		if j.err = j.bw.Flush(); j.err != nil {
			return nil
		}
	}
	return strconv.AppendInt(append(j.bw.AvailableBuffer(), head...), int64(t), 10)
}

// end closes the line begin opened and hands it to the buffer it was
// appended into.
func (j *JSONLWriter) end(b []byte) {
	if _, err := j.bw.Write(append(b, '}', '\n')); err != nil {
		j.err = err
	}
}

// txLine encodes an event that carries a transmission.
func (j *JSONLWriter) txLine(head string, t core.Slot, tx core.Transmission, dup bool, note string) {
	b := j.begin(head, t)
	if b == nil {
		return
	}
	b = appendField(b, `,"from":`, int64(tx.From))
	b = appendField(b, `,"to":`, int64(tx.To))
	b = appendField(b, `,"p":`, int64(tx.Packet))
	if dup {
		b = append(b, `,"dup":true`...)
	}
	if note != "" {
		// At most once per run (the violation kind); encoding/json keeps
		// the string escaping from drifting.
		q, err := json.Marshal(note)
		if err != nil {
			j.err = err
			return
		}
		b = append(append(b, `,"kind":`...), q...)
	}
	j.end(b)
}

// Flush drains the buffer and returns the first error encountered.
func (j *JSONLWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	return j.bw.Flush()
}

// SlotStart implements Observer.
func (j *JSONLWriter) SlotStart(t core.Slot, scheduled int) {
	if b := j.begin(`{"ev":"slot","t":`, t); b != nil {
		j.end(appendField(b, `,"n":`, int64(scheduled)))
	}
}

// Transmit implements Observer.
func (j *JSONLWriter) Transmit(t core.Slot, tx core.Transmission) {
	j.txLine(`{"ev":"tx","t":`, t, tx, false, "")
}

// Deliver implements Observer.
func (j *JSONLWriter) Deliver(t core.Slot, tx core.Transmission, duplicate bool) {
	j.txLine(`{"ev":"rx","t":`, t, tx, duplicate, "")
}

// Drop implements Observer.
func (j *JSONLWriter) Drop(t core.Slot, tx core.Transmission) {
	j.txLine(`{"ev":"drop","t":`, t, tx, false, "")
}

// Violation implements Observer.
func (j *JSONLWriter) Violation(t core.Slot, kind string, tx core.Transmission) {
	j.txLine(`{"ev":"violation","t":`, t, tx, false, kind)
}

// SlotEnd implements Observer.
func (j *JSONLWriter) SlotEnd(t core.Slot) {
	if b := j.begin(`{"ev":"end","t":`, t); b != nil {
		j.end(b)
	}
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
