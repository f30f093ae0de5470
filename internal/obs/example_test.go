package obs_test

import (
	"fmt"
	"slices"
	"strings"

	"streamcast/internal/core"
	"streamcast/internal/hypercube"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// Example attaches a metrics collector to a hypercube run and prints the
// headline numbers a report would carry.
func Example() {
	h, err := hypercube.New(15, 2)
	if err != nil {
		panic(err)
	}
	m := obs.NewMetrics()
	opt := slotsim.Options{Slots: 40, Packets: 8, Mode: core.Live, Observer: m}
	res, err := slotsim.Run(h, opt)
	if err != nil {
		panic(err)
	}

	tot := m.Totals()
	fmt.Printf("transmissions: %d\n", tot.Transmits)
	fmt.Printf("worst delay:   %d slots\n", res.WorstStartDelay())
	fmt.Printf("worst buffer:  %d packets\n", res.WorstBuffer())

	// The per-slot buffer series peaks exactly at the engine's number.
	peak, _ := m.BufferSeries(res.StartDelay, res.Packets)
	fmt.Printf("series peak:   %d packets\n", slices.Max(peak))
	// Output:
	// transmissions: 569
	// worst delay:   3 slots
	// worst buffer:  2 packets
	// series peak:   2 packets
}

// ExampleSlotFunc hooks a function into a run without writing an Observer
// type: count deliveries that arrive more than 8 slots behind the stream
// head.
func ExampleSlotFunc() {
	m, err := multitree.New(15, 3, multitree.Greedy)
	if err != nil {
		panic(err)
	}
	scheme := multitree.NewScheme(m, core.Live)
	late := 0
	opt := slotsim.Options{
		Slots: 35, Packets: 12, Mode: core.Live,
		Observer: obs.SlotFunc(func(v *obs.SlotView) {
			for _, tx := range v.Arrivals {
				if v.T-core.Slot(tx.Packet) > 8 {
					late++
				}
			}
		}),
	}
	if _, err := slotsim.Run(scheme, opt); err != nil {
		panic(err)
	}
	fmt.Printf("deliveries more than 8 slots behind: %d\n", late)
	// Output:
	// deliveries more than 8 slots behind: 0
}

// ExampleJSONLWriter records a run as a JSONL event trace and reads it back.
func ExampleJSONLWriter() {
	m, err := multitree.New(7, 2, multitree.Greedy)
	if err != nil {
		panic(err)
	}
	scheme := multitree.NewScheme(m, core.PreRecorded)
	var buf strings.Builder
	j := obs.NewJSONLWriter(&buf)
	if _, err := slotsim.Run(scheme, slotsim.Options{Slots: 12, Packets: 4, Observer: j}); err != nil {
		panic(err)
	}
	if err := j.Flush(); err != nil {
		panic(err)
	}

	events, err := obs.ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("first event: %s\n", events[0])
	fmt.Printf("events recorded: %d\n", len(events))
	// Output:
	// first event: t0 slot n=2
	// events recorded: 174
}
