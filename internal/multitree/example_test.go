package multitree_test

import (
	"fmt"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

// Example builds the paper's Figure 3 configuration and runs its schedule.
func Example() {
	trees, err := multitree.New(15, 3, multitree.Structured)
	if err != nil {
		panic(err)
	}
	scheme := multitree.NewScheme(trees, core.PreRecorded)
	res, err := slotsim.Run(scheme, slotsim.Options{Slots: 30, Packets: 9})
	if err != nil {
		panic(err)
	}
	fmt.Printf("height h=%d, worst delay %d (bound h*d=%d), buffer %d\n",
		trees.Height(), res.WorstStartDelay(), trees.Height()*3, res.WorstBuffer())
	// Output:
	// height h=3, worst delay 6 (bound h*d=9), buffer 3
}

// ExampleNew_greedy shows the greedy construction's tree T_1 from
// Figure 3(b).
func ExampleNew_greedy() {
	trees, err := multitree.New(15, 3, multitree.Greedy)
	if err != nil {
		panic(err)
	}
	fmt.Println(trees.Trees[1])
	// Output:
	// [5 6 7 8 3 1 2 9 4 11 12 10 14 15 13]
}

// ExampleLiveScheme_Apply drives the appendix churn algorithms through the
// one door a membership change has: a join into full trees grows them a
// level, which appends d fresh ids; the leave that follows shrinks them
// back, and the ids stay allocated.
func ExampleLiveScheme_Apply() {
	ls, err := multitree.NewLiveScheme(9, 3, false, core.PreRecorded)
	if err != nil {
		panic(err)
	}
	fmt.Printf("members=%d ids=%d\n", len(ls.Members()), ls.NumReceivers())
	st, err := ls.Apply(0, core.TopologyOp{Name: "alice"}) // d | N: the trees must grow a level
	if err != nil {
		panic(err)
	}
	fmt.Printf("alice is id %d, swaps=%d, members=%d ids=%d\n", st.Node, st.Swaps, len(ls.Members()), ls.NumReceivers())
	st, err = ls.Apply(1, core.TopologyOp{Leave: true, Name: "alice"}) // shrink back
	if err != nil {
		panic(err)
	}
	fmt.Printf("swaps=%d, members=%d ids=%d, still valid: %v\n", st.Swaps, len(ls.Members()), ls.NumReceivers(), ls.Validate() == nil)
	// Output:
	// members=9 ids=9
	// alice is id 10, swaps=3, members=10 ids=12
	// swaps=3, members=9 ids=12, still valid: true
}
