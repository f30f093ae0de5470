package core

import (
	"strings"
	"testing"
)

func TestStreamModeString(t *testing.T) {
	cases := map[StreamMode]string{
		PreRecorded:     "pre-recorded",
		Live:            "live",
		LivePreBuffered: "live-prebuffered",
		StreamMode(42):  "StreamMode(42)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestTransmissionString(t *testing.T) {
	tx := Transmission{From: 3, To: 7, Packet: 12}
	if got := tx.String(); !strings.Contains(got, "3") || !strings.Contains(got, "7") || !strings.Contains(got, "12") {
		t.Errorf("String() = %q", got)
	}
}
