// Scheme selection: the paper's Table 1 frames a real engineering tradeoff
// — the multi-tree scheme wins on playback delay with constant neighbor
// counts, the hypercube scheme wins on buffer space with O(log N)
// neighbors. This example measures both at several swarm sizes and picks a
// scheme per deployment profile (memory-constrained set-top boxes vs
// delay-sensitive live viewers). Both meshes come out of the scheme
// registry, the same construction path the simulator CLI uses.
package main

import (
	"fmt"
	"log"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/spec"
)

type measurement struct {
	scheme   string
	delay    core.Slot
	buffer   int
	neighbor int
}

func measure(sc *spec.Scenario) (measurement, error) {
	run, err := spec.Build(sc)
	if err != nil {
		return measurement{}, err
	}
	res, err := run.Execute(nil)
	if err != nil {
		return measurement{}, err
	}
	return measurement{run.Scheme.Name(), res.WorstStartDelay(), res.WorstBuffer(), core.MaxNeighbors(run.Scheme)}, nil
}

func main() {
	const d = 3
	fmt.Println("profile A: set-top boxes with 2-packet buffers (buffer-bound)")
	fmt.Println("profile B: live sports viewers (delay-bound, RAM is cheap)")
	fmt.Println()
	fmt.Printf("%7s  %-18s %-12s %-10s %-10s  %s\n", "N", "scheme", "worst delay", "buffer", "neighbors", "verdict")

	for _, n := range []int{50, 200, 1000} {
		msc := spec.MultiTreeScenario(n, d, multitree.Greedy, core.Live)
		msc.Packets = 3 * d
		mt, err := measure(msc)
		if err != nil {
			log.Fatal(err)
		}
		hsc := spec.HypercubeScenario(n, d)
		hsc.Packets = 8
		hc, err := measure(hsc)
		if err != nil {
			log.Fatal(err)
		}

		for _, meas := range []measurement{mt, hc} {
			verdict := ""
			if meas.buffer <= 2 {
				verdict = "fits profile A"
			}
			if meas.delay <= mt.delay && meas.delay <= hc.delay {
				if verdict != "" {
					verdict += ", "
				}
				verdict += "best for profile B"
			}
			fmt.Printf("%7d  %-18s %-12d %-10d %-10d  %s\n",
				n, meas.scheme, meas.delay, meas.buffer, meas.neighbor, verdict)
		}
	}
	fmt.Println()
	fmt.Println("takeaway (matches Table 1): hypercube = O(1) buffers + O(log(N/d)) neighbors;")
	fmt.Println("multi-tree = lower worst-case delay + constant 2d neighbors, at O(d log N) buffers.")
}
