package integration

import (
	"fmt"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/spec"
)

// draw reads the fuzzer's bytes as a sequence of small choices; past the end
// of the input every choice is 0.
type draw []byte

func (d *draw) n(k int) int {
	if len(*d) == 0 {
		return 0
	}
	v := int((*d)[0]) % k
	*d = (*d)[1:]
	return v
}

func pick[T any](d *draw, from ...T) T { return from[d.n(len(from))] }

// generate turns fuzz input into a run: a family of the registry with small
// parameters — populations on both sides of finish()'s 64-id tiles — a stream
// mode where the family takes one, window widths up to and around 64, now and
// then a horizon too short for the window, live churn from a generator where
// the family can churn, a seeded loss / delay / crash plan, and — one input in
// four — a Drop hook losing every transmission whose coordinates sum to a
// multiple of drop. keep says whether the engine runs are asked for their
// arrival cells.
func generate(data []byte) (scenario, plan string, drop int, keep bool) {
	d := draw(data)
	fams := spec.Families()
	f := fams[d.n(len(fams))]
	var b strings.Builder
	fmt.Fprintf(&b, "scheme %s\n", f.Name)
	for _, p := range f.Params {
		switch {
		case p.Name == "n":
			fmt.Fprintf(&b, "param n=%d\n", max(p.Min, pick(&d, 3, 5, 8, 13, 21, 34, 62, 63, 64, 65, 127, 130)))
		case p.Kind == spec.Int:
			fmt.Fprintf(&b, "param %s=%d\n", p.Name, p.Min+d.n(4))
		case p.Kind == spec.Int64:
			fmt.Fprintf(&b, "param %s=%d\n", p.Name, 1+d.n(250))
		case p.Kind == spec.Enum:
			fmt.Fprintf(&b, "param %s=%s\n", p.Name, pick(&d, p.Enum...))
		}
	}
	if !f.HasForcedMode && !f.InternalMode {
		if mode := pick(&d, "", "prerecorded", "live", "prebuffered"); mode != "" {
			fmt.Fprintf(&b, "mode %s\n", mode)
		}
	}
	if w := pick(&d, 0, 1, 2, 5, 17, 63, 64, 65); w > 0 {
		fmt.Fprintf(&b, "packets %d\n", w)
	}
	if d.n(4) == 3 {
		fmt.Fprintf(&b, "slots %d\n", 1+d.n(60))
	}
	if f.Caps.LiveChurn && d.n(2) == 1 {
		lo := d.n(20)
		fmt.Fprintf(&b, "churn kind=%s rate=%s seed=%d max=%d slots=%d..%d",
			pick(&d, "poisson", "flash", "wave"), pick(&d, "0.25", "0.5", "1", "2", "3.5"),
			1+d.n(250), 1+d.n(40), lo, lo+1+d.n(40))
		if d.n(2) == 1 {
			b.WriteString(" policy=lazy")
		}
		b.WriteString("\n")
	}
	if d.n(2) == 1 {
		var p strings.Builder
		fmt.Fprintf(&p, "seed %d\n", 1+d.n(250))
		for rules := 1 + d.n(3); rules > 0; rules-- {
			to := pick(&d, "any", "any", "1", "2", "5", "7")
			switch d.n(3) {
			case 0:
				fmt.Fprintf(&p, "loss from=any to=%s rate=%s slots=%d..\n", to, pick(&d, "0.02", "0.1", "0.3"), d.n(10))
			case 1:
				fmt.Fprintf(&p, "delay from=any to=%s extra=%d rate=%s slots=%d..\n", to, 1+d.n(3), pick(&d, "0.3", "1"), d.n(10))
			case 2:
				fmt.Fprintf(&p, "crash node=%d at=%d\n", 1+d.n(8), d.n(30))
			}
		}
		plan = p.String()
	}
	if d.n(4) == 1 {
		drop = 2 + d.n(30)
	}
	return b.String(), plan, drop, d.n(2) == 1
}

// FuzzEngineDifferential is the engine against the oracle on generated runs:
// equal Result, cells and verdict, bare and observed — which is also the
// metamorphic property that attaching an observer changes nothing — and,
// when the window completes at slot T, the same again under horizons of T+1
// and T+65 slots: T slots are a prefix of T+k, the property the engine's stop
// rule rests on. `make fuzz` runs it for five seconds; the corpus under
// testdata/fuzz runs with every `go test`.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{}) // chain, every default; testdata/fuzz holds a seed per family
	f.Fuzz(func(t *testing.T, data []byte) {
		scenario, planText, drop, keep := generate(data)
		build := func(slots core.Slot) (*spec.Run, error) {
			run, err := buildRun(scenario, planText, slots)
			if err == nil && drop > 0 {
				run.Opt.Drop = func(tx core.Transmission, t core.Slot) bool {
					return (int(tx.From)+int(tx.To)+int(tx.Packet)+int(t))%drop == 0
				}
			}
			return run, err
		}
		ref, err := build(0)
		if err != nil {
			return // the generator drew what the registry refuses
		}
		want, cells, werr := oracle(ref.Scheme, ref.Opt)
		against := func(horizon core.Slot) {
			for _, observed := range []bool{false, true} {
				run, err := build(horizon)
				if err != nil {
					t.Fatalf("horizon %d: %v\n%s%sdrop %d", horizon, err, scenario, planText, drop)
				}
				if diff := engineAgainst(run, observed, keep, want, cells, werr); diff != "" {
					t.Fatalf("horizon %d, observed=%v: %s\n%s%sdrop %d", horizon, observed, diff, scenario, planText, drop)
				}
			}
		}
		against(0)
		if werr != nil {
			return
		}
		for _, missing := range want.Missing {
			if missing > 0 {
				return
			}
		}
		for _, k := range []core.Slot{1, 65} {
			// Slots the reference never ran are a prefix only of an unperturbed
			// run: there a churn generator can still wipe an id, and a Drop
			// without SkipUnavailable still starve a relay into a violation.
			if h := want.SlotsUsed + k; h <= ref.Opt.Slots || (ref.Live == nil && drop == 0) {
				against(h)
			}
		}
	})
}
