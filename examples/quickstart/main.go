// Quickstart: describe a multi-tree streaming mesh for 30 receivers as a
// declarative scenario, resolve it through the scheme registry, preflight
// it with the static verifier, run the slot-synchronous simulator, and
// print the QoS the paper analyses — playback delay, buffer space, and
// neighbor count. The same text runs from a file or stdin through
// `streamsim -scenario FILE|-`.
package main

import (
	"fmt"
	"log"

	"streamcast/internal/analysis"
	"streamcast/internal/core"
	"streamcast/internal/spec"
)

// scenario is the complete description of the run in the SCENARIOS.md text
// format: a scheme family, its parameters, and the measurement window.
const scenario = `scheme multitree
param n=30
param d=3
param construction=greedy
packets 9
check
`

func main() {
	// 1. Parse the declarative form. Parse rejects unknown parameters and
	// impossible combinations with line-precise diagnostics.
	sc, err := spec.Parse(scenario)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario (canonical form):\n%s\n", sc.Format())

	// 2. Resolve it through the scheme registry: constructs the
	// d interior-disjoint d-ary trees (Section 2.2), wraps them with the
	// round-robin transmission schedule, and derives the engine horizon.
	run, err := spec.Build(sc)
	if err != nil {
		log.Fatal(err)
	}
	n := run.Scheme.NumReceivers()
	d := 3

	// 3. Preflight: the static verifier proves the schedule well-formed
	// before a single packet is simulated.
	rep, err := run.Preflight()
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static verifier: schedule for %d receivers is clean\n\n", n)

	// 4. Execute the schedule. The engine independently checks that every
	// node sends and receives at most one packet per slot.
	res, err := run.Execute(nil)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Report QoS against the paper's bounds.
	fmt.Printf("worst playback delay: %d slots (Theorem 2 bound: %d)\n",
		res.WorstStartDelay(), analysis.Theorem2Bound(n, d))
	fmt.Printf("average playback delay: %.2f slots (Theorem 3 lower bound: %.2f)\n",
		res.AvgStartDelay(), analysis.Theorem3LowerBound(n, d))
	fmt.Printf("worst buffer occupancy: %d packets (bound: %d)\n",
		res.WorstBuffer(), analysis.BufferBound(n, d))
	fmt.Printf("max neighbors per node: %d (bound: 2d = %d)\n", core.MaxNeighbors(run.Scheme), 2*d)

	// 6. Per-node detail for a few nodes.
	for _, id := range []core.NodeID{1, core.NodeID(n / 2), core.NodeID(n)} {
		fmt.Printf("node %2d: starts playback at slot %d, buffers up to %d packets\n",
			id, res.StartDelay[id], res.MaxBuffer[id])
	}
}
