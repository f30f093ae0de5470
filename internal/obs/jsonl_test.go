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
	both.Slot(&SlotView{T: 2, Violation: &Violation{Kind: "receive capacity", Tx: tx(1, 2, 3)}})
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
	Feed(j,
		Event{Kind: KindSlotStart, Slot: 1, Scheduled: 2},
		Event{Kind: KindTransmit, Slot: 1, Tx: tx(0, 3, 0)},
		Event{Kind: KindDeliver, Slot: 1, Tx: tx(3, 4, 2), Dup: true},
		Event{Kind: KindSlotEnd, Slot: 1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"slot","t":1,"n":2}
{"ev":"tx","t":1,"to":3}
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
		j.Slot(&SlotView{T: t, Ended: true}) // must not panic once the sink has failed
	}
	if err := j.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Flush() = %v, want the retained write error", err)
	}
}

// TestJSONLWriterFailsMidRun: a sink that fails after two buffer-sized
// writes, under several megabytes of events and so many batch handoffs,
// must not block or panic Slot; Flush returns the first error, again on a
// second call, and the encoder stops writing after it.
func TestJSONLWriterFailsMidRun(t *testing.T) {
	w := &failWriter{n: 2}
	j := NewJSONLWriter(w)
	txs := make([]core.Transmission, 50)
	for i := range txs {
		txs[i] = tx(1234, 5678, 42)
	}
	for slot := core.Slot(0); slot < 1000; slot++ {
		j.Slot(&SlotView{T: slot, Scheduled: 100, Sent: txs, Arrivals: txs, Ended: true})
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

// TestAppendEncoderMatchesMarshal pins the wire format: for a few thousand
// seeded events in slot views — zero, negative and extreme fields, lost
// sends, duplicate arrivals, hostile violation notes, unended slots — the
// append encoder's bytes equal json.Marshal of jsonEvent line by line. The
// views span several batches, and slots that continue from one batch into
// the next.
func TestAppendEncoderMatchesMarshal(t *testing.T) {
	evs := OracleEvents(1, 3*jsonlBatchTxs)
	views, ok := Views(evs)
	if !ok {
		t.Fatal("the oracle's events are not a stream of slot views")
	}
	big := make([]core.Transmission, jsonlBatchTxs+jsonlBatchTxs/2)
	for i := range big {
		big[i] = tx(core.NodeID(i), core.NodeID(i+1), core.Packet(i%7))
	}
	// Two slots larger than a batch, each starting where the last batch is
	// part full.
	for i, k := range []int{len(views) / 3, 2 * len(views) / 3} {
		views[k].Sent, views[k].Lost = big, []int{0, jsonlBatchTxs - 1, jsonlBatchTxs, len(big) - 1}
		views[k].Arrivals, views[k].Dups = big[i:], []int{1, jsonlBatchTxs}
	}
	var got, want bytes.Buffer
	j := NewJSONLWriter(&got)
	for i := range views {
		j.Slot(&views[i])
		for _, e := range views[i].AppendEvents(nil) {
			want.Write(marshalLine(t, e))
		}
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

// batchView is a slot with every kind of line but the violation's: a
// transmit, a drop, an arrival and a duplicate.
var batchView = SlotView{
	Scheduled: 3,
	Sent:      []core.Transmission{tx(1234, 5678, 42), tx(1234, 5678, 42)},
	Lost:      []int{1},
	Arrivals:  []core.Transmission{tx(1234, 5678, 42), tx(1234, 5678, 42)},
	Dups:      []int{1},
	Ended:     true,
}

// batchOfViews feeds o one JSONLWriter batch's worth of batchView slots,
// from slot *slot on.
func batchOfViews(o Observer, slot *core.Slot) {
	for k := 0; k < jsonlBatchTxs; k += 4 {
		batchView.T = *slot
		o.Slot(&batchView)
		*slot++
	}
}

// TestJSONLWriterAllocs: Slot must not allocate — not per slot and not per
// batch handoff, before and after a Flush. Each measured run hands over at
// least one batch; AllocsPerRun's own first call starts the encoder, whose
// channels and goroutine are all a writer allocates after NewJSONLWriter.
func TestJSONLWriterAllocs(t *testing.T) {
	j := NewJSONLWriter(io.Discard)
	slot := core.Slot(0)
	for round := 0; round < 2; round++ {
		if n := testing.AllocsPerRun(5, func() { batchOfViews(j, &slot) }); n != 0 {
			t.Errorf("round %d: a batch of JSONLWriter slots allocates %v times, want 0", round, n)
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
			batchOfViews(j, &slot)
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
		batchOfViews(&oracle, &slot)
	}
	for _, e := range oracle.Events {
		want.Write(marshalLine(t, e))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("trace across a Flush differs from the events in order (%d bytes, want %d)", got.Len(), want.Len())
	}
}
