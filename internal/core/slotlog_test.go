package core

import (
	"reflect"
	"testing"
)

// logSlot builds the k transmissions test slot t is made of; every field
// depends on both t and the position, so a misplaced record shows.
func logSlot(t Slot, k int) []Transmission {
	var txs []Transmission
	for i := 0; i < k; i++ {
		txs = append(txs, Transmission{From: NodeID(i), To: NodeID(int(t) + 7*i + 1), Packet: Packet(int(t)*3 + i)})
	}
	return txs
}

// TestSlotLogReads: slots come back value for value in any read order and
// on repeated reads, an empty slot is nil, the caller's buffer may be
// reused straight after Append, and sizes are chosen so single slots and
// slot boundaries both straddle chunk boundaries.
func TestSlotLogReads(t *testing.T) {
	sizes := []int{0, 3, slotLogChunk - 5, 9, 0, 0, 2*slotLogChunk + 1, 1, slotLogChunk - 1, 0, 4}
	var l SlotLog
	var scratch []Transmission
	for u, k := range sizes {
		if got := l.Len(); got != Slot(u) {
			t.Fatalf("Len() = %d before appending slot %d", got, u)
		}
		scratch = append(scratch[:0], logSlot(Slot(u), k)...)
		l.Append(scratch)
		for i := range scratch { // the log must not alias the caller's buffer
			scratch[i] = Transmission{From: -1, To: -1, Packet: -1}
		}
	}
	if got := l.Len(); got != Slot(len(sizes)) {
		t.Fatalf("Len() = %d, want %d", got, len(sizes))
	}
	order := []int{10, 0, 6, 6, 3, 1, 9, 2, 8, 5, 4, 7, 0, 10}
	for _, u := range order {
		got := l.Transmissions(Slot(u))
		want := logSlot(Slot(u), sizes[u])
		if sizes[u] == 0 {
			if got != nil {
				t.Fatalf("empty slot %d read as %v, want nil", u, got)
			}
			continue
		}
		if len(got) != cap(got) {
			t.Errorf("slot %d: len %d, cap %d — want an exact-size slice", u, len(got), cap(got))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d read back wrong (%d records)", u, len(got))
		}
	}
}

// TestSlotLogReadsAreOwned: a returned slice is the caller's — writing to it
// does not reach the log, and it survives later Appends unchanged.
func TestSlotLogReadsAreOwned(t *testing.T) {
	var l SlotLog
	l.Append(logSlot(0, 5))
	held := l.Transmissions(0)
	snapshot := append([]Transmission(nil), held...)
	for u := Slot(1); u < 40; u++ {
		l.Append(logSlot(u, slotLogChunk/8))
	}
	if !reflect.DeepEqual(held, snapshot) {
		t.Fatal("a slice read earlier changed under later Appends")
	}
	held[2].Packet = 99
	if got := l.Transmissions(0); !reflect.DeepEqual(got, snapshot) {
		t.Fatalf("writing to a returned slice reached the log: %v", got)
	}
}
