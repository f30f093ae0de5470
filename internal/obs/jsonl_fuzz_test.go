package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"streamcast/internal/obs"
)

// writeAll serializes events through the JSONLWriter's Observer surface —
// the only write path the engine uses — and returns the bytes.
func writeAll(evs []obs.Event) ([]byte, error) {
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	for _, e := range evs {
		switch e.Kind {
		case obs.KindSlotStart:
			w.SlotStart(e.Slot, e.Scheduled)
		case obs.KindTransmit:
			w.Transmit(e.Slot, e.Tx)
		case obs.KindDeliver:
			w.Deliver(e.Slot, e.Tx, e.Dup)
		case obs.KindDrop:
			w.Drop(e.Slot, e.Tx)
		case obs.KindViolation:
			w.Violation(e.Slot, e.Note, e.Tx)
		case obs.KindSlotEnd:
			w.SlotEnd(e.Slot)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FuzzReadEvents: the JSONL trace reader must reject malformed input with an
// error (never a panic), and accepted input must reach a serialization fixed
// point after one write pass — reading what the writer wrote and writing it
// again reproduces the bytes exactly, so traces survive replay pipelines.
func FuzzReadEvents(f *testing.F) {
	if golden, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "events_hypercube_k2.jsonl")); err == nil {
		f.Add(golden)
	} else {
		f.Errorf("golden trace unavailable: %v", err)
	}
	f.Add([]byte(`{"ev":"slot","t":0,"n":3}`))
	f.Add([]byte(`{"ev":"tx","t":2,"from":1,"to":2,"p":5}`))
	f.Add([]byte(`{"ev":"rx","t":1,"from":9,"to":1,"p":2,"dup":true}`))
	f.Add([]byte(`{"ev":"violation","t":4,"from":1,"to":2,"p":3,"kind":"duplicate packet"}`))
	f.Add([]byte(`{"ev":"end","t":7}`))
	f.Add([]byte(`{"ev":"nope","t":0}`))
	f.Add([]byte(`{"ev":"slot","t":0,"n":3,"dup":true,"kind":"smuggled"}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"ev":"tx","t":-3,"from":-1,"to":-2,"p":-9}`))
	// The encoder oracle's inputs (TestAppendEncoderMatchesMarshal), as the
	// writer serializes them: extremes, omitted zeros and hostile notes.
	if oracle, err := writeAll(obs.OracleEvents(1, 200)); err == nil {
		f.Add(oracle)
	} else {
		f.Errorf("serializing the oracle events: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := obs.ReadEvents(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected cleanly — done
		}
		norm, err := writeAll(evs)
		if err != nil {
			t.Fatalf("serializing parsed events: %v", err)
		}
		evs2, err := obs.ReadEvents(bytes.NewReader(norm))
		if err != nil {
			t.Fatalf("writer output rejected by reader: %v\n%s", err, norm)
		}
		if len(evs2) != len(evs) {
			t.Fatalf("round trip changed event count: %d -> %d", len(evs), len(evs2))
		}
		for i := range evs {
			if evs2[i].Kind != evs[i].Kind || evs2[i].Slot != evs[i].Slot || evs2[i].Tx != evs[i].Tx {
				t.Fatalf("event %d changed in round trip: %+v -> %+v", i, evs[i], evs2[i])
			}
		}
		norm2, err := writeAll(evs2)
		if err != nil {
			t.Fatalf("second serialization: %v", err)
		}
		if !bytes.Equal(norm, norm2) {
			t.Errorf("no fixed point after one normalization pass:\n%s\nvs\n%s", norm, norm2)
		}
	})
}
