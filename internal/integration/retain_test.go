package integration

import (
	"fmt"
	"reflect"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// clobbering serves each slot from one buffer and, before it does, overwrites
// what the previous call returned: the strictest reading of core.Scheme's
// slice contract (valid until the next call). A caller that keeps a slot past
// the next call reads garbage or the next slot instead.
type clobbering struct {
	core.Scheme
	buf []core.Transmission
}

// Period passes the wrapped scheme's declaration on: clobbering changes no
// slot's contents, so an intact and a clobbered run certify alike.
func (c *clobbering) Period() (warm, P core.Slot) {
	if p, ok := c.Scheme.(core.Periodic); ok {
		return p.Period()
	}
	return 0, 0
}

func (c *clobbering) Transmissions(t core.Slot) []core.Transmission {
	for i := range c.buf {
		c.buf[i] = core.Transmission{From: -1, To: -1, Packet: -1}
	}
	c.buf = append(c.buf[:0], c.Scheme.Transmissions(t)...)
	return c.buf[:len(c.buf):len(c.buf)]
}

// TestNoCallerRetainsTransmissions: the engine (bare and observed), the static
// verifier and the oracle reach the same Result, cells, report and verdict
// whether a scheme's slots stay intact or are clobbered on the next call — so
// none of them holds a slot past it, and a scheme may reuse its buffer.
func TestNoCallerRetainsTransmissions(t *testing.T) {
	for _, f := range spec.Families() {
		t.Run(f.Name, func(t *testing.T) {
			build := builder(t, func() (*spec.Scenario, error) { return &spec.Scenario{Scheme: f.Name}, nil }, nil)
			outcomes := func(clobber bool) map[string]any {
				scheme := func(run *spec.Run) core.Scheme {
					if clobber {
						return &clobbering{Scheme: run.Scheme}
					}
					return run.Scheme
				}
				out := map[string]any{}
				for _, observer := range []obs.Observer{nil, obs.SlotFunc(func(*obs.SlotView) {})} {
					run := build()
					opt := run.Opt
					opt.Observer, opt.Arrivals = observer, new(slotsim.Arrivals)
					res, err := slotsim.Run(scheme(run), opt)
					out[fmt.Sprintf("engine (observed=%v)", observer != nil)] = []any{res, opt.Arrivals, fmt.Sprint(err)}
				}
				if run := build(); run.CheckOpt != nil {
					rep, err := check.Static(scheme(run), *run.CheckOpt)
					out["check.Static"] = []any{rep, fmt.Sprint(err)}
				}
				run := build()
				res, cells, err := oracle(scheme(run), run.Opt)
				out["oracle"] = []any{res, cells, fmt.Sprint(err)}
				return out
			}
			intact, clobbered := outcomes(false), outcomes(true)
			for judge, want := range intact {
				if !reflect.DeepEqual(clobbered[judge], want) {
					t.Errorf("%s: the outcome changes when each slot is clobbered on the next call", judge)
				}
			}
		})
	}
}
