package obs

import (
	"math"
	"math/rand"

	"streamcast/internal/core"
)

// hostileNotes are violation kinds chosen to exercise every branch of JSON
// string escaping: quotes, backslashes, HTML-sensitive bytes, the JS line
// separators, control bytes and invalid UTF-8.
var hostileNotes = []string{
	"",
	"duplicate packet",
	`say "hi"`,
	`back\slash\\`,
	"<script>&amp;</script>",
	"line\u2028sep\u2029end",
	"ctl\x00\x01\x1f\x7f",
	"tab\tnl\ncr\r",
	"bad\xff\xfeutf8",
	"\xc3\x28",
	"日本語 é",
}

// OracleEvents draws n seeded events spread over every kind and over the
// values the encoder treats specially: zero (omitted), negatives, the
// int64 extremes, Dup on kinds that do not carry it, and hostile notes.
// The fuzz corpus and the encoder oracle test share it.
func OracleEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	num := func() int {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return -1 - rng.Intn(1000)
		case 2:
			return math.MinInt64
		case 3:
			return math.MaxInt64
		default:
			return rng.Intn(100000)
		}
	}
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Kind:      Kind(rng.Intn(int(KindSlotEnd) + 1)),
			Slot:      core.Slot(num()),
			Tx:        tx(core.NodeID(num()), core.NodeID(num()), core.Packet(num())),
			Dup:       rng.Intn(3) == 0,
			Scheduled: num(),
			Note:      hostileNotes[rng.Intn(len(hostileNotes))],
		}
	}
	return evs
}
