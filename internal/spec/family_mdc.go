package spec

import (
	"fmt"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/slotsim"
)

func init() {
	params := append(multiTreeParams(),
		Param{Name: "rounds", Kind: Int, Def: "6", Min: 1,
			Doc: "MDC playback rounds (window = rounds x d descriptions)"})
	register(&Family{
		Name:   "mdc",
		Doc:    "multi-tree run analyzed as d MDC descriptions per round (Section 1)",
		Params: params,
		// Quality analysis expects loss: the run is best effort, and the
		// static verifier's completeness model does not apply. The
		// underlying multi-tree schedule itself is still periodic.
		Caps: Capabilities{BestEffort: true, Periodic: true},
		defaultPackets: func(v Values) core.Packet {
			return core.Packet(v.Int("rounds") * v.Int("d"))
		},
		build: func(in buildInput) (*buildOutput, error) {
			m, err := buildMultiTree(in.Values)
			if err != nil {
				return nil, err
			}
			d := in.Values.Int("d")
			out := &buildOutput{
				Scheme: multitree.NewScheme(m, in.Mode),
				// The MDC experiments' horizon: tree propagation plus three
				// rounds of slack beyond the measured window.
				Extra: core.Slot(m.Height()*d + 3*d),
			}
			out.Opt.Mode = in.Mode
			out.Opt.AllowIncomplete = true
			out.Opt.SkipUnavailable = true
			// Round quality is read off single arrivals.
			out.Opt.Arrivals = new(slotsim.Arrivals)
			return out, nil
		},
	})
}

// MDCScenario is a convenience constructor for MDC sweeps: N receivers,
// d descriptions, a playback-round window.
func MDCScenario(n, d, rounds int) *Scenario {
	sc := &Scenario{Scheme: "mdc"}
	sc.setParam("n", fmt.Sprint(n))
	sc.setParam("d", fmt.Sprint(d))
	sc.setParam("rounds", fmt.Sprint(rounds))
	return sc
}

// Descriptions returns the MDC description count of an mdc-family run
// (the tree degree d); callers use it, with Opt.Arrivals, to drive
// mdc.SystemQuality.
func (r *Run) Descriptions() int {
	if r.Family.Name != "mdc" {
		return 0
	}
	return r.Values.Int("d")
}
