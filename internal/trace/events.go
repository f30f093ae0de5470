package trace

import (
	"strings"

	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// EventLog executes the scheme under a JSONL trace recorder and returns the
// event log: one JSON object per engine event (slot boundaries,
// transmissions, deliveries, drops), in the deterministic order both
// engines produce. It is the machine-readable companion of the figure
// renderers — piping a run through obs.ReadEvents recovers the exact
// slot-by-slot history that HypercubeBufferTrace renders for humans. The
// format is golden-tested, so it is safe to build external tooling on.
func EventLog(s core.Scheme, opt slotsim.Options) (string, error) {
	var buf strings.Builder
	j := obs.NewJSONLWriter(&buf)
	opt.Observer = obs.Combine(opt.Observer, j)
	_, err := slotsim.Run(s, opt)
	// A failed run is flushed too: Flush joins the writer's encoder.
	if ferr := j.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return "", err
	}
	return buf.String(), nil
}

// EventSummary condenses a JSONL event log into per-slot counts — a quick
// sanity view of a recorded trace without replaying it through the engine.
func EventSummary(log string) (slots, transmits, delivers int, err error) {
	events, err := obs.ReadEvents(strings.NewReader(log))
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range events {
		switch e.Kind {
		case obs.KindSlotEnd:
			slots++
		case obs.KindTransmit:
			transmits++
		case obs.KindDeliver:
			delivers++
		}
	}
	return slots, transmits, delivers, nil
}
