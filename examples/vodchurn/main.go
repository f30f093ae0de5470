// Video-on-demand under churn: a pre-recorded movie streams to a swarm of
// receivers while viewers join and leave. The example drives the appendix
// add/delete algorithms (eager and lazy), tracks the swap costs the paper
// bounds, and once all operations are done validates the trees and streams
// the swarm over them to show they still sustain collision-free streaming.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

func main() {
	const (
		d       = 3
		startN  = 40
		ops     = 500
		reseeds = 42
	)

	for _, lazy := range []bool{false, true} {
		variant := "eager"
		if lazy {
			variant = "lazy"
		}
		ls, err := multitree.NewLiveScheme(startN, d, lazy, core.PreRecorded)
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(reseeds))
		var adds, dels, swaps, maxSwaps int
		for i := 0; i < ops; i++ {
			op := core.TopologyOp{Name: fmt.Sprintf("viewer-%d", i)}
			if rng.Intn(2) != 0 {
				if viewers := ls.Members(); len(viewers) > 2 {
					op = core.TopologyOp{Leave: true, Name: viewers[rng.Intn(len(viewers))].Name}
				}
			}
			st, err := ls.Apply(core.Slot(i), op)
			if err != nil {
				log.Fatal(err)
			}
			if op.Leave {
				dels++
			} else {
				adds++
			}
			swaps += st.Swaps
			maxSwaps = max(maxSwaps, st.Swaps)
		}
		if err := ls.Validate(); err != nil {
			log.Fatalf("%s: invariants broken after churn: %v", variant, err)
		}

		// The swarm must still stream: run the schedule over the family as
		// churn left it. Dummy and departed ids receive nothing, so they are
		// reported missing and count toward neither worst case; every live
		// member must receive the whole window.
		res, err := slotsim.Run(ls, slotsim.Options{
			Slots:           ls.SteadyState() + core.Slot(3*d),
			Packets:         core.Packet(3 * d),
			AllowIncomplete: true,
		})
		if err != nil {
			log.Fatalf("%s: post-churn streaming failed: %v", variant, err)
		}
		members := ls.Members()
		for _, mem := range members {
			if res.Missing[mem.Node] > 0 {
				log.Fatalf("%s: %s missed %d packets after churn", variant, mem.Name, res.Missing[mem.Node])
			}
		}

		fmt.Printf("%s variant: %d adds, %d deletes -> N=%d\n", variant, adds, dels, len(members))
		fmt.Printf("  total swaps: %d (avg %.2f/op, max %d/op, paper bound d+d^2=%d)\n",
			swaps, float64(swaps)/float64(ops), maxSwaps, d+d*d)
		fmt.Printf("  post-churn streaming: worst delay %d slots, worst buffer %d packets\n\n",
			res.WorstStartDelay(), res.WorstBuffer())
	}
}
