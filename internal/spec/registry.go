package spec

import (
	"fmt"
	"sort"
	"strconv"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/randreg"
	"streamcast/internal/slotsim"
)

// Kind is the value type of a scheme parameter.
type Kind int

const (
	// Int is a decimal integer with an inclusive minimum.
	Int Kind = iota
	// Int64 is a 64-bit decimal integer (seeds).
	Int64
	// Enum is one of a fixed set of lower-case words.
	Enum
)

// Param describes one parameter a scheme family accepts. Anything not
// declared here is rejected by scenario validation — a parameter can never
// be silently ignored.
type Param struct {
	// Name is the key used in "param name=value" directives.
	Name string
	// Kind selects the value syntax.
	Kind Kind
	// Def is the default value in canonical text form.
	Def string
	// Min is the inclusive minimum for Int parameters.
	Min int
	// Enum lists the allowed values for Enum parameters.
	Enum []string
	// Doc is the one-line description `streamsim -list-schemes` shows.
	Doc string
}

// validate checks one value against the parameter's declared type.
func (p Param) validate(v string) error {
	switch p.Kind {
	case Int:
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("%s=%q is not an integer", p.Name, v)
		}
		if n < p.Min {
			return fmt.Errorf("%s must be >= %d, got %d", p.Name, p.Min, n)
		}
	case Int64:
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			return fmt.Errorf("%s=%q is not an integer", p.Name, v)
		}
	case Enum:
		for _, e := range p.Enum {
			if v == e {
				return nil
			}
		}
		return fmt.Errorf("%s=%q is not one of %v", p.Name, v, p.Enum)
	}
	return nil
}

// Capabilities are the static facts the registry records about a family —
// what the rest of the toolchain may assume without constructing anything.
type Capabilities struct {
	// StaticCheck means internal/check can verify the family's schedule;
	// the check directive on a family without it fails fast instead of
	// producing spurious verifier output.
	StaticCheck bool
	// BestEffort means the family runs with AllowIncomplete by default:
	// missing packets are an expected outcome, not a scheme defect.
	BestEffort bool
	// LiveChurn means the family's membership can change mid-run (the
	// churn scenario directive, the only way it ever does): its builder
	// wires a core.DynamicScheme plus a slotsim.ChurnSource into the run.
	LiveChurn bool
}

// ModeRule is how a family's stream mode is chosen.
type ModeRule uint8

const (
	// AnyMode runs in the scenario's mode, prerecorded without a mode
	// directive.
	AnyMode ModeRule = iota
	// LiveOnly always runs live; a mode directive naming another mode is
	// rejected.
	LiveOnly
	// OwnMode means the scheme sets its stream mode itself (cluster); any
	// mode directive is rejected.
	OwnMode
)

// Values holds a family's fully resolved parameters: every declared
// parameter is present, defaults filled in, values validated.
type Values map[string]string

// Int returns an Int/Int64 parameter. The registry has already validated
// the value, so a miss here is a programming error.
func (v Values) Int(name string) int {
	n, err := strconv.Atoi(v[name])
	if err != nil {
		panic(fmt.Sprintf("spec: Values.Int(%q) on %q: %v", name, v[name], err))
	}
	return n
}

// Int64 returns a 64-bit integer parameter.
func (v Values) Int64(name string) int64 {
	n, err := strconv.ParseInt(v[name], 10, 64)
	if err != nil {
		panic(fmt.Sprintf("spec: Values.Int64(%q) on %q: %v", name, v[name], err))
	}
	return n
}

// Str returns a parameter's text value.
func (v Values) Str(name string) string { return v[name] }

// buildInput is what a family builder receives: resolved parameters, the
// resolved stream mode and packet window, the loaded fault plan (nil
// without a faults directive), the validated churn directive (nil
// without one), and the prebuilt digraph of a randreg scenario (nil unless
// RandRegScenarioOn set one).
type buildInput struct {
	Values  Values
	Mode    core.StreamMode
	Packets core.Packet
	Plan    *faults.Plan
	Churn   *faults.Churn
	Graph   *randreg.Digraph
}

// buildOutput is what a family builder returns. Build fills Opt.Packets,
// and Opt.Slots (from Extra) when the builder left it zero.
type buildOutput struct {
	Scheme core.Scheme
	// Opt carries the family's engine defaults (capacities, churn...).
	// Build sets Mode (unless the family has OwnMode) and, for BestEffort
	// families, AllowIncomplete. Slots may be pre-set (cluster computes its
	// own horizon); otherwise Build sets Slots = Packets + Extra.
	Opt slotsim.Options
	// Extra is the horizon slack beyond the packet window.
	Extra core.Slot
	// Check is the family's internal/check options: the audit bounds and,
	// in Run.Slots, the verifier's horizon. Build keeps only that horizon
	// of Run and fills the rest from the run's own engine options, before
	// any fault plan is applied. Nil with Caps.StaticCheck means the
	// generic audit over the run's horizon.
	Check *check.Options
	// Live configures the run's mid-run churn source, every field but the
	// horizon set: Build fills in Slots once the horizon is final, builds
	// the source and wires it into Opt.Churn. Non-nil suppresses the static
	// preflight options, since a mutating topology has no fixed schedule to
	// verify.
	Live *faults.LiveChurnConfig
}

// Family is one registered scheme family: the single construction path for
// its schemes. Scenario text, experiment sweeps, checks, and the
// integration suites all go through the family's builder.
type Family struct {
	// Name is the scheme name ("multitree", "hypercube", ...).
	Name string
	// Doc is a one-line description for `streamsim -list-schemes`.
	Doc string
	// Params declares every accepted parameter.
	Params []Param
	// Caps are the family's capability flags.
	Caps Capabilities
	// Mode is how the family's stream mode is chosen.
	Mode ModeRule

	// defaultPackets derives the measurement window when the scenario
	// does not set one.
	defaultPackets func(v Values) core.Packet
	// build constructs the scheme and its engine options.
	build func(in buildInput) (*buildOutput, error)
}

// param looks up a declared parameter.
func (f *Family) param(name string) *Param {
	for i := range f.Params {
		if f.Params[i].Name == name {
			return &f.Params[i]
		}
	}
	return nil
}

// resolve merges explicit parameters over the declared defaults,
// rejecting undeclared names and ill-typed values — the first in name order,
// so the diagnostic does not depend on map order.
func (f *Family) resolve(explicit map[string]string) (Values, error) {
	v := make(Values, len(f.Params))
	for _, p := range f.Params {
		v[p.Name] = p.Def
	}
	names := make([]string, 0, len(explicit))
	for name := range explicit {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := f.param(name)
		if p == nil {
			return nil, reject("param "+name, "scheme %s does not accept parameter %q (accepts %s)",
				f.Name, name, f.paramNames())
		}
		if err := p.validate(explicit[name]); err != nil {
			return nil, reject("param "+name, "scheme %s: %v", f.Name, err)
		}
		v[name] = explicit[name]
	}
	return v, nil
}

// paramNames renders the declared parameter list for diagnostics.
func (f *Family) paramNames() string {
	if len(f.Params) == 0 {
		return "no parameters"
	}
	names := make([]string, len(f.Params))
	for i, p := range f.Params {
		names[i] = p.Name
	}
	return fmt.Sprint(names)
}

// registry is the global family table, filled by the init functions of the
// family_*.go files in this package.
var registry = map[string]*Family{}

// register adds a family; duplicate names are a programming error.
func register(f *Family) {
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("spec: duplicate scheme family %q", f.Name))
	}
	if f.build == nil || f.defaultPackets == nil {
		panic(fmt.Sprintf("spec: family %q missing builder hooks", f.Name))
	}
	registry[f.Name] = f
}

// Lookup returns the named family, or nil.
func Lookup(name string) *Family { return registry[name] }

// Families returns every registered family sorted by name.
func Families() []*Family {
	out := make([]*Family, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SchemeNames returns the registered family names, sorted.
func SchemeNames() []string {
	fams := Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}
