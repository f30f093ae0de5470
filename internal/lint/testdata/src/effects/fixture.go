// Package fixture exercises the effects-summary layer: a direct call to a
// base output sink, output reach inherited through module call edges
// (fixpoint propagation), and functions that never reach output. The golden
// expectations live in effects_test.go.
package fixture

import (
	"fmt"
	"io"
)

// counter is package-level state; touching it is not output.
var counter int

// emitDirect calls a base output sink itself.
func emitDirect(w io.Writer) {
	fmt.Fprintln(w, counter)
}

// viaHelper reaches the sink only through a call edge.
func viaHelper(w io.Writer) {
	emitDirect(w)
}

// chained is two call edges away from the sink.
func chained(w io.Writer) {
	counter++
	viaHelper(w)
}

// aggregate folds state without reaching any sink.
func aggregate(vs []int) int {
	total := 0
	for _, v := range vs {
		total += v
	}
	counter = total
	return total
}

// viaAggregate calls only non-emitting functions.
func viaAggregate(vs []int) int {
	return aggregate(vs) + 1
}
