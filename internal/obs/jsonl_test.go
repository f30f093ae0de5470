package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// failWriter fails after n successful writes, each failure with its own
// error so that a test can tell the first from the rest.
type failWriter struct{ n, failed int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		w.failed++
		return 0, fmt.Errorf("disk full (failure %d)", w.failed)
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

// TestJSONLWriterFailsMidRun: a sink that fails after two buffer-sized
// writes, under several megabytes of events and so many batch handoffs,
// must not block or panic the callbacks; Flush returns the first error,
// again on a second call, and the encoder stops writing after it.
func TestJSONLWriterFailsMidRun(t *testing.T) {
	w := &failWriter{n: 2}
	j := NewJSONLWriter(w)
	x := tx(1234, 5678, 42)
	for slot := core.Slot(0); slot < 1000; slot++ {
		j.SlotStart(slot, 100)
		for k := 0; k < 50; k++ {
			j.Transmit(slot, x)
			j.Deliver(slot, x, false)
		}
		j.SlotEnd(slot)
	}
	for range 2 {
		if err := j.Flush(); err == nil || err.Error() != "disk full (failure 1)" {
			t.Errorf("Flush() = %v, want the first write error", err)
		}
	}
	if w.failed != 1 {
		t.Errorf("sink saw %d failed writes, want 1: the encoder kept writing after the error", w.failed)
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
	for _, e := range OracleEvents(1, 3*jsonlBatchLen) {
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

// batchOfEvents feeds o one JSONLWriter batch's worth of events of every
// kind, from slot *slot on.
func batchOfEvents(o Observer, slot *core.Slot) {
	x := tx(1234, 5678, 42)
	for k := 0; k < jsonlBatchLen; k += 6 {
		t := *slot
		o.SlotStart(t, 3)
		o.Transmit(t, x)
		o.Deliver(t, x, false)
		o.Deliver(t, x, true)
		o.Drop(t, x)
		o.SlotEnd(t)
		*slot++
	}
}

// TestJSONLWriterAllocs: the per-event callbacks of a trace must not
// allocate — not per event and not per batch handoff, before and after a
// Flush. Each measured run hands over at least one batch; AllocsPerRun's
// own first call starts the encoder, whose channels and goroutine are all
// a writer allocates after NewJSONLWriter.
func TestJSONLWriterAllocs(t *testing.T) {
	j := NewJSONLWriter(io.Discard)
	slot := core.Slot(0)
	for round := 0; round < 2; round++ {
		if n := testing.AllocsPerRun(5, func() { batchOfEvents(j, &slot) }); n != 0 {
			t.Errorf("round %d: a batch of JSONLWriter callbacks allocates %v times, want 0", round, n)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// encoderGoroutines counts the goroutines running a JSONL encoder.
func encoderGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("obs.(*jsonlEncoder).run("))
}

// awaitGoroutines waits until ok holds, giving goroutines that have
// signalled their end time to return, and reports whether it came to hold.
func awaitGoroutines(ok func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !ok(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestJSONLWriterLifecycle: the encoder goroutine runs from the first
// handoff until Flush, which joins it, so the goroutine count is back at
// its baseline once Flush returns; and events recorded after a Flush land
// after the flushed ones, in order, from a new encoder.
func TestJSONLWriterLifecycle(t *testing.T) {
	// Encoders of earlier tests have been joined but may not have returned.
	awaitGoroutines(func() bool { return encoderGoroutines() == 0 })
	base := runtime.NumGoroutine()
	var got, want bytes.Buffer
	j := NewJSONLWriter(&got)
	slot := core.Slot(0)
	events := func() {
		for range 3 * jsonlBatches {
			batchOfEvents(j, &slot)
		}
	}
	events()
	if n := encoderGoroutines(); n != 1 {
		t.Errorf("%d encoder goroutines while the writer has full batches, want 1", n)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if !awaitGoroutines(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("%d goroutines after Flush, want the baseline %d", runtime.NumGoroutine(), base)
	}
	if n := encoderGoroutines(); n != 0 {
		t.Errorf("%d encoder goroutines after Flush, want 0", n)
	}
	events()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var oracle Recorder
	end := slot
	for slot = 0; slot < end; {
		batchOfEvents(&oracle, &slot)
	}
	for _, e := range oracle.Events {
		want.Write(marshalLine(t, e))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("trace across a Flush differs from the events in order (%d bytes, want %d)", got.Len(), want.Len())
	}
}
