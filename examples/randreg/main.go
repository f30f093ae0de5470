// Randreg: run the random-regular-digraph family in all three schedule
// modes over the same seeded graph and compare them against the paper's
// delay/buffer frontier. The latin mode is exactly periodic — a closed form
// of the slot — while the pull and push modes are
// seeded gossip protocols whose guarantees are probabilistic; the
// differential test harness (internal/integration), not a symbolic proof,
// is what certifies all three. The same scenario text runs through
// `streamsim -scenario -`; `param mode=pull` selects the pull schedule.
package main

import (
	"fmt"
	"log"

	"streamcast/internal/randreg"
	"streamcast/internal/spec"
)

func main() {
	const degree = 3
	for _, mode := range []string{"latin", "pull", "push"} {
		// 1. Describe the run declaratively and resolve it through the
		// scheme registry: one seed fixes the digraph (shared by every
		// mode) and the protocol's random choices, so each run here is
		// exactly reproducible.
		sc := spec.RandRegScenario(200, degree, mode, 7)
		fmt.Printf("— scenario —\n%s", sc.Format())
		run, err := spec.Build(sc)
		if err != nil {
			log.Fatal(err)
		}

		// 2. The latin mode repeats every degree slots once its largest
		// edge delay has passed; pull and push have no closed form.
		if s := run.Scheme.(*randreg.Scheme); s.Mode() == randreg.Latin {
			fmt.Printf("periodic: period %d slots from slot %d, the largest edge delay\n", degree, s.MaxDelay())
		} else {
			fmt.Println("gossip schedule: generated from simulation state")
		}

		// 3. Execute and report the QoS the paper trades off: playback
		// delay against buffer space. Best-effort modes may miss packets;
		// the engine reports rather than hides that.
		res, err := run.Execute(nil)
		if err != nil {
			log.Fatal(err)
		}
		missing := 0
		for _, m := range res.Missing {
			missing += m
		}
		fmt.Printf("worst playback delay: %d slots, avg %.2f\n",
			res.WorstStartDelay(), res.AvgStartDelay())
		fmt.Printf("worst buffer occupancy: %d packets, missing packets: %d\n\n",
			res.WorstBuffer(), missing)
	}
}
