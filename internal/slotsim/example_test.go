package slotsim_test

import (
	"fmt"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// ExampleRun runs a 63-receiver multi-tree with a metrics observer attached
// and replays it: the observer event stream is deterministic, here
// fingerprinted to prove it.
func ExampleRun() {
	m, err := multitree.New(63, 3, multitree.Greedy)
	if err != nil {
		panic(err)
	}
	scheme := multitree.NewScheme(m, core.Live)
	opt := slotsim.Options{Slots: 50, Packets: 12, Mode: core.Live}

	first := obs.NewMetrics()
	opt.Observer = first
	res, err := slotsim.Run(scheme, opt)
	if err != nil {
		panic(err)
	}

	replay := obs.NewMetrics()
	opt.Observer = replay
	if _, err := slotsim.Run(scheme, opt); err != nil {
		panic(err)
	}

	fmt.Printf("worst delay:  %d slots\n", res.WorstStartDelay())
	fmt.Printf("worst buffer: %d packets\n", res.WorstBuffer())
	fmt.Printf("same schedule: %v\n", first.Fingerprint() == replay.Fingerprint())
	// Output:
	// worst delay:  11 slots
	// worst buffer: 6 packets
	// same schedule: true
}
