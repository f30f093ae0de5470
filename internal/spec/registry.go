package spec

import (
	"fmt"
	"sort"
	"strconv"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/faults"
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
	// Name is the key used in "param name=value" directives and as the
	// streamsim flag name.
	Name string
	// Kind selects the value syntax.
	Kind Kind
	// Def is the default value in canonical text form.
	Def string
	// Min is the inclusive minimum for Int parameters.
	Min int
	// Enum lists the allowed values for Enum parameters.
	Enum []string
	// Doc is the one-line description shown by streamsim -list-schemes.
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
	// -check on a family without it fails fast instead of producing
	// spurious verifier output.
	StaticCheck bool
	// Periodic means the family's schemes implement core.PeriodicScheme
	// and are eligible for schedule compilation.
	Periodic bool
	// BestEffort means the family runs with AllowIncomplete by default:
	// missing packets are an expected outcome, not a scheme defect.
	BestEffort bool
	// LiveChurn means the family's membership can change mid-run (the
	// churn scenario directive, the only way it ever does): its builder
	// wires a core.DynamicScheme plus a slotsim.ChurnSource into the run.
	LiveChurn bool
}

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

// churnSpec is the scenario's live-churn half, resolved for the builder:
// non-nil only when the scenario carries a churn directive (which Validate
// has already gated to LiveChurn-capable families).
type churnSpec struct {
	Kind       string
	Rate       float64
	Seed       int64
	Lazy       bool
	Max        int
	Begin, End core.Slot
}

// buildInput is what a family builder receives: resolved parameters, the
// resolved stream mode and packet window, the loaded fault plan (nil
// without -faults / a faults directive), and the live-churn spec (nil
// without a churn directive).
type buildInput struct {
	Values  Values
	Mode    core.StreamMode
	Packets core.Packet
	Plan    *faults.Plan
	Churn   *churnSpec
}

// buildOutput is what a family builder returns. Build fills Opt.Packets,
// and Opt.Slots (from Extra) when the builder left it zero.
type buildOutput struct {
	Scheme core.Scheme
	// Opt carries the family's engine defaults (mode, capacities,
	// AllowIncomplete...). Slots may be pre-set (cluster computes its own
	// horizon); otherwise Build sets Slots = Packets + Extra.
	Opt slotsim.Options
	// Extra is the horizon slack beyond the packet window.
	Extra core.Slot
	// MkCheck builds the family's internal/check options for a window.
	// Nil with Caps.StaticCheck means the generic engine-derived audit.
	MkCheck func(win core.Packet) check.Options
	// Live is the run's mid-run churn source (already wired into
	// Opt.Churn); non-nil suppresses the static preflight options, since a
	// mutating topology has no fixed schedule to verify.
	Live *faults.LiveChurn
}

// Family is one registered scheme family: the single construction path for
// its schemes. CLI flags, scenario files, experiment sweeps, checks, and
// the integration suites all go through the family's builder.
type Family struct {
	// Name is the scheme name ("multitree", "hypercube", ...).
	Name string
	// Doc is a one-line description for -list-schemes.
	Doc string
	// Params declares every accepted parameter.
	Params []Param
	// Caps are the family's capability flags.
	Caps Capabilities
	// ForcedMode, when HasForcedMode, is the only stream mode the family
	// runs in; an explicit conflicting mode directive is rejected.
	ForcedMode    core.StreamMode
	HasForcedMode bool
	// InternalMode means the scheme manages its stream mode itself
	// (cluster); any explicit mode directive is rejected.
	InternalMode bool

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
// rejecting undeclared names and ill-typed values.
func (f *Family) resolve(explicit map[string]string) (Values, error) {
	v := make(Values, len(f.Params))
	for _, p := range f.Params {
		v[p.Name] = p.Def
	}
	for name, val := range explicit {
		p := f.param(name)
		if p == nil {
			return nil, fmt.Errorf("scheme %s does not accept parameter %q (accepts %s)",
				f.Name, name, f.paramNames())
		}
		if err := p.validate(val); err != nil {
			return nil, fmt.Errorf("scheme %s: %w", f.Name, err)
		}
		v[name] = val
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
