package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/core"
)

func TestJSONLRoundTrip(t *testing.T) {
	var rec Recorder
	var buf strings.Builder
	both := Combine(&rec, NewJSONLWriter(&buf)).(multi)
	j := both[1].(*JSONLWriter)
	replay(both)
	both.Violation(2, "receive capacity", tx(1, 2, 3))
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec.Events) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, rec.Events)
	}
}

func TestJSONLWireFormat(t *testing.T) {
	var buf strings.Builder
	j := NewJSONLWriter(&buf)
	j.SlotStart(0, 2)
	j.Transmit(0, tx(0, 3, 0))
	j.Deliver(1, tx(3, 4, 2), true)
	j.SlotEnd(1)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"slot","t":0,"n":2}
{"ev":"tx","t":0,"to":3}
{"ev":"rx","t":1,"from":3,"to":4,"p":2,"dup":true}
{"ev":"end","t":1}
`
	if buf.String() != want {
		t.Errorf("wire format:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader(`{"ev":"nope","t":0}`)); err == nil {
		t.Error("unknown event kind should error")
	}
	if _, err := ReadEvents(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed line should error")
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJSONLWriterRetainsFirstError(t *testing.T) {
	j := NewJSONLWriter(&failWriter{})
	for t := core.Slot(0); t < 10000; t++ {
		j.SlotStart(t, 0) // must not panic once the sink has failed
		j.SlotEnd(t)
	}
	if err := j.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Flush() = %v, want the retained write error", err)
	}
}

// marshalLine is the encoder's oracle: the reflective json.Marshal of
// jsonEvent the writer used before it became an append encoder, with the
// same field-selection rule (transmission fields only for kinds that carry
// one).
func marshalLine(t *testing.T, e Event) []byte {
	t.Helper()
	je := jsonEvent{Ev: e.Kind.String(), T: e.Slot, N: e.Scheduled, Kind: e.Note}
	if hasTx(e.Kind) {
		je.From, je.To, je.P, je.Dup = e.Tx.From, e.Tx.To, e.Tx.Packet, e.Dup
	}
	b, err := json.Marshal(je)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// viaObserver replays e through the Observer method of its kind and
// returns the event that callback describes: the surface drops whatever
// the callback has no parameter for.
func viaObserver(o Observer, e Event) Event {
	switch e.Kind {
	case KindSlotStart:
		o.SlotStart(e.Slot, e.Scheduled)
		return Event{Kind: e.Kind, Slot: e.Slot, Scheduled: e.Scheduled}
	case KindTransmit:
		o.Transmit(e.Slot, e.Tx)
		return Event{Kind: e.Kind, Slot: e.Slot, Tx: e.Tx}
	case KindDeliver:
		o.Deliver(e.Slot, e.Tx, e.Dup)
		return Event{Kind: e.Kind, Slot: e.Slot, Tx: e.Tx, Dup: e.Dup}
	case KindDrop:
		o.Drop(e.Slot, e.Tx)
		return Event{Kind: e.Kind, Slot: e.Slot, Tx: e.Tx}
	case KindViolation:
		o.Violation(e.Slot, e.Note, e.Tx)
		return Event{Kind: e.Kind, Slot: e.Slot, Tx: e.Tx, Note: e.Note}
	default:
		o.SlotEnd(e.Slot)
		return Event{Kind: KindSlotEnd, Slot: e.Slot}
	}
}

// TestAppendEncoderMatchesMarshal pins the wire format: for a few thousand
// seeded events through the Observer surface — zero, negative and extreme
// fields, Dup set on kinds whose callback cannot carry it, hostile
// violation notes — the append encoder's bytes equal json.Marshal of
// jsonEvent line by line.
func TestAppendEncoderMatchesMarshal(t *testing.T) {
	var got, want bytes.Buffer
	j := NewJSONLWriter(&got)
	for _, e := range OracleEvents(1, 4000) {
		want.Write(marshalLine(t, viaObserver(j, e)))
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.SplitAfter(got.Bytes(), []byte("\n")), bytes.SplitAfter(want.Bytes(), []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("encoder wrote %d lines, oracle %d", len(gl), len(wl))
	}
}

// TestJSONLWriterAllocs: the per-event callbacks of a trace must not
// allocate — the encoder appends into the buffer it already owns.
func TestJSONLWriterAllocs(t *testing.T) {
	j := NewJSONLWriter(io.Discard)
	x := tx(1234, 5678, 42)
	slot := core.Slot(0)
	if n := testing.AllocsPerRun(1000, func() {
		j.SlotStart(slot, 3)
		j.Transmit(slot, x)
		j.Deliver(slot, x, false)
		j.Deliver(slot, x, true)
		j.Drop(slot, x)
		j.SlotEnd(slot)
		slot++
	}); n != 0 {
		t.Errorf("JSONLWriter callbacks allocate %v times per slot, want 0", n)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
}
