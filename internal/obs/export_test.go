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

// encoderEdges are the values at the edges of the encoder's number paths:
// zero (omitted), the digit table's decimal-length steps and its end, where
// strconv takes over, negatives and the int64 extremes.
var encoderEdges = []int{
	0, 9, 10, 99, 100,
	digitTableMax - 1, digitTableMax, digitTableMax + 1,
	-1, -10, math.MinInt64, math.MaxInt64,
}

// OracleEvents returns n seeded events. The first ones put each of
// encoderEdges in every numeric field of every kind; the rest are drawn
// over every kind and over the values the encoder treats specially: zero,
// negatives, the int64 extremes, Dup on kinds that do not carry it, and
// hostile notes. The fuzz corpus and the encoder oracle test share it.
func OracleEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	num := func() int {
		switch rng.Intn(9) {
		case 0:
			return 0
		case 1:
			return -1 - rng.Intn(1000)
		case 2:
			return math.MinInt64
		case 3:
			return math.MaxInt64
		case 4:
			return encoderEdges[rng.Intn(len(encoderEdges))]
		default:
			return rng.Intn(100000)
		}
	}
	kinds := int(KindSlotEnd) + 1
	evs := make([]Event, n)
	for i := range evs {
		if i < len(encoderEdges)*kinds {
			v := encoderEdges[i/kinds]
			evs[i] = Event{
				Kind:      Kind(i % kinds),
				Slot:      core.Slot(v),
				Tx:        tx(core.NodeID(v), core.NodeID(v), core.Packet(v)),
				Dup:       i%2 == 0,
				Scheduled: v,
				Note:      hostileNotes[i%len(hostileNotes)],
			}
			continue
		}
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
