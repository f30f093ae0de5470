package spec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/randreg"
)

// Scenario is a complete, serializable description of one simulation run:
// which scheme family with which parameters, under which stream mode and
// horizon, with which faults, preflight, and outputs.
// The zero value plus a Scheme name is a valid scenario using every
// family default.
type Scenario struct {
	// Scheme is the registered family name.
	Scheme string
	// Params holds only the explicitly set parameters; resolution against
	// the family's declared defaults happens in Build. Keeping defaults
	// out preserves "was it set?" — the fact validation needs to reject
	// parameters that would be silently ignored.
	Params map[string]string
	// Mode is the stream mode name ("prerecorded", "live", "prebuffered");
	// empty means the family default.
	Mode string
	// Packets is the measurement window; 0 means the family default.
	Packets int
	// Slots overrides the total horizon; 0 means the family's automatic
	// horizon (window + family slack).
	Slots int
	// Parallel and Workers record the `parallel [workers=n]` directive,
	// which is accepted and ignored: the engine is single-threaded and
	// results never depended on worker count. Kept — parse, validation,
	// canonical Format — for their last caller, bench/pipeline.go.
	Parallel bool
	Workers  int
	// Check runs the static schedule/mesh verifier as a preflight.
	Check bool
	// FaultsFile references a deterministic fault plan (FAULTS.md);
	// FaultSeed, when non-zero, overrides the plan's seed.
	FaultsFile string
	FaultSeed  int64
	// Churn is the live, mid-run churn directive; nil means none. Live
	// churn requires a family with the LiveChurn capability (multitree).
	Churn *faults.Churn
	// MetricsOut, TraceOut, ReportOut are the observability outputs
	// ("-" = stdout, empty = off).
	MetricsOut string
	TraceOut   string
	ReportOut  string

	// graph is a randreg scenario's prebuilt digraph, set only by
	// RandRegScenarioOn; nil means Build draws it from the seed. Scenario
	// text cannot carry it.
	graph *randreg.Digraph
}

// maxWorkers caps the parallel directive's worker count: a scenario asking
// for thousands of workers is a typo, not a tuning choice.
const maxWorkers = 1024

// setParam records an explicitly set parameter.
func (sc *Scenario) setParam(name, value string) {
	if sc.Params == nil {
		sc.Params = map[string]string{}
	}
	sc.Params[name] = value
}

// modeNames maps the scenario mode words to core.StreamMode.
var modeNames = map[string]core.StreamMode{
	"prerecorded": core.PreRecorded,
	"live":        core.Live,
	"prebuffered": core.LivePreBuffered,
}

// modeWord renders a core.StreamMode as its scenario word.
func modeWord(m core.StreamMode) string {
	switch m {
	case core.Live:
		return "live"
	case core.LivePreBuffered:
		return "prebuffered"
	default:
		return "prerecorded"
	}
}

// rejection is a Validate error that names what it rejects: a directive
// ("mode", "churn", ...) or one parameter ("param n"). Parse puts the line
// that holds it in front of the message.
type rejection struct {
	what, msg string
}

func (r *rejection) Error() string { return "spec: " + r.msg }

func reject(what, format string, a ...any) error {
	return &rejection{what: what, msg: fmt.Sprintf(format, a...)}
}

// Validate checks the scenario against the registry: the family must
// exist, every parameter must be declared and well-typed, the mode must be
// one the family runs in, and check/fault/churn combinations must be
// executable. Scenarios built as values and parsed ones go through the same
// checks; each rejection names the directive or parameter it rejects.
func (sc *Scenario) Validate() error {
	if sc.Scheme == "" {
		return fmt.Errorf("spec: no scheme selected")
	}
	f := Lookup(sc.Scheme)
	if f == nil {
		return reject("scheme", "unknown scheme %q (registered: %s)",
			sc.Scheme, strings.Join(SchemeNames(), ", "))
	}
	if _, err := f.resolve(sc.Params); err != nil {
		return err
	}
	if sc.Mode != "" {
		m, ok := modeNames[sc.Mode]
		switch {
		case !ok:
			return reject("mode", "unknown mode %q (want prerecorded, live, or prebuffered)", sc.Mode)
		case f.Mode == OwnMode:
			return reject("mode", "scheme %s manages its stream mode internally; drop the mode directive", sc.Scheme)
		case f.Mode == LiveOnly && m != core.Live:
			return reject("mode", "scheme %s always runs in live mode; mode %s would be ignored", sc.Scheme, sc.Mode)
		}
	}
	if sc.Packets < 0 {
		return reject("packets", "packets must be >= 0, got %d", sc.Packets)
	}
	if sc.Slots < 0 {
		return reject("slots", "slots must be >= 0, got %d", sc.Slots)
	}
	if sc.Workers != 0 && !sc.Parallel {
		return reject("parallel", "workers is only meaningful with parallel; it would be ignored")
	}
	if sc.Workers < 0 {
		return reject("parallel", "workers must be >= 0, got %d", sc.Workers)
	}
	if sc.Workers > maxWorkers {
		return reject("parallel", "workers must be <= %d, got %d (the directive is accepted and ignored — the engine is single-threaded and results never depended on worker count — but a count this large is a typo)", maxWorkers, sc.Workers)
	}
	if sc.Check && !f.Caps.StaticCheck {
		return reject("check", "scheme %s is not statically checkable (no closed-form schedule for internal/check); drop the check directive", sc.Scheme)
	}
	if sc.FaultSeed != 0 && sc.FaultsFile == "" {
		return reject("faults", "fault seed without a fault plan; it would be ignored")
	}
	return sc.validateChurn(f)
}

// validateChurn checks the churn directive: its own rules (faults.Churn.Check)
// and the ones that span directives — the family must churn, and neither
// check nor a structured construction can go with it.
func (sc *Scenario) validateChurn(f *Family) error {
	if sc.Churn == nil {
		return nil
	}
	if err := sc.Churn.Check(); err != nil {
		return reject("churn", "%v", err)
	}
	if !f.Caps.LiveChurn {
		return reject("churn", "scheme %s cannot run live churn (no dynamic topology); only churn-capable families (multitree) accept the churn directive", sc.Scheme)
	}
	if sc.Check {
		return reject("churn", "check verifies a static schedule; it cannot preflight a topology that mutates mid-run — drop check or the churn directive")
	}
	if sc.Params["construction"] == "structured" {
		return reject("churn", "live churn runs on the dynamic (greedy-based) family; construction=structured cannot churn")
	}
	return nil
}

// argKeys are the key=value arguments of the directives that take them.
var argKeys = map[string][]string{
	"parallel": {"workers"},
	"faults":   {"file", "seed"},
	"churn":    {"kind", "rate", "seed", "max", "policy", "slots"},
	"out":      {"metrics", "trace", "report"},
}

// Parse reads the text form of a scenario. The format is line based, in
// the style of internal/faults plans:
//
//	# comment; blank lines are ignored
//	scheme multitree
//	param n=200 d=3
//	param construction=structured
//	mode live
//	packets 12
//	slots 80
//	parallel workers=4
//	check
//	faults file=chaos.plan seed=7
//	churn kind=poisson rate=0.5 seed=11 max=20 policy=lazy slots=10..60
//	out metrics=metrics.prom trace=events.jsonl report=report.json
//
// Parse reads the syntax; Validate, which it then runs, holds every other
// rule, so a parameter the selected scheme would ignore is an error, not a
// no-op. Every diagnostic of a scenario that names its scheme carries the
// 1-based line number of the offending directive.
// Format renders the canonical form; Parse(Format(sc)) reproduces sc.
func Parse(src string) (*Scenario, error) {
	sc := &Scenario{}
	lines := map[string]int{} // a directive, or "param <name>", → its line
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := sc.parseLine(i+1, strings.Fields(line), lines); err != nil {
			return nil, fmt.Errorf("spec: line %d: %w", i+1, err)
		}
	}
	if err := sc.Validate(); err != nil {
		var r *rejection
		if errors.As(err, &r) && lines[r.what] > 0 {
			return nil, fmt.Errorf("spec: line %d: %s", lines[r.what], r.msg)
		}
		return nil, err
	}
	return sc, nil
}

// parseLine reads one directive into sc and records its line under the
// name Validate's rejections use.
func (sc *Scenario) parseLine(ln int, fields []string, lines map[string]int) error {
	directive, rest := fields[0], fields[1:]
	if directive != "param" {
		if prev, dup := lines[directive]; dup {
			return fmt.Errorf("duplicate %s directive (first on line %d)", directive, prev)
		}
		lines[directive] = ln
	}
	var a map[string]string
	if keys, ok := argKeys[directive]; ok {
		var err error
		if a, err = faults.ParseArgs(rest, keys...); err != nil {
			return fmt.Errorf("%s: %w", directive, err)
		}
	}
	switch directive {
	case "scheme":
		if len(rest) != 1 {
			return fmt.Errorf("scheme takes exactly one name")
		}
		sc.Scheme = rest[0]
	case "param":
		if len(rest) == 0 {
			return fmt.Errorf("param needs at least one name=value")
		}
		for _, f := range rest {
			k, v, ok := strings.Cut(f, "=")
			if !ok || k == "" || v == "" {
				return fmt.Errorf("param argument %q is not name=value", f)
			}
			if _, dup := sc.Params[k]; dup {
				return fmt.Errorf("duplicate parameter %q", k)
			}
			sc.setParam(k, v)
			lines["param "+k] = ln
		}
	case "mode":
		if len(rest) != 1 {
			return fmt.Errorf("mode takes exactly one of prerecorded, live, prebuffered")
		}
		sc.Mode = rest[0]
	case "packets", "slots":
		if len(rest) != 1 {
			return fmt.Errorf("%s takes exactly one integer", directive)
		}
		n, err := strconv.Atoi(rest[0])
		if err != nil || n < 1 {
			return fmt.Errorf("%s %q is not a positive integer", directive, rest[0])
		}
		if directive == "packets" {
			sc.Packets = n
		} else {
			sc.Slots = n
		}
	case "parallel":
		sc.Parallel = true
		if w, ok := a["workers"]; ok {
			n, err := strconv.Atoi(w)
			if err != nil || n < 1 {
				return fmt.Errorf("parallel: workers %q is not a positive integer", w)
			}
			sc.Workers = n
		}
	case "check":
		if len(rest) != 0 {
			return fmt.Errorf("check takes no arguments")
		}
		sc.Check = true
	case "faults":
		file, ok := a["file"]
		if !ok {
			return fmt.Errorf("faults: missing file=<path>")
		}
		sc.FaultsFile = file
		if s, ok := a["seed"]; ok {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil || v == 0 {
				return fmt.Errorf("faults: seed %q is not a non-zero integer", s)
			}
			sc.FaultSeed = v
		}
	case "churn":
		c, err := parseChurn(a)
		if err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		sc.Churn = c
	case "out":
		if len(a) == 0 {
			return fmt.Errorf("out needs at least one of metrics=, trace=, report=")
		}
		sc.MetricsOut = a["metrics"]
		sc.TraceOut = a["trace"]
		sc.ReportOut = a["report"]
	default:
		return fmt.Errorf("unknown directive %q (want scheme, param, mode, packets, slots, parallel, check, faults, churn, or out)", directive)
	}
	return nil
}

// parseChurn reads the churn directive's arguments. Their rules are
// faults.Churn.Check's; here only the syntax is read, and the text forms of
// seed, max and the window end are positive because their 0 means unset.
func parseChurn(a map[string]string) (*faults.Churn, error) {
	c := &faults.Churn{Kind: a["kind"]}
	if c.Kind == "" {
		return nil, fmt.Errorf("missing kind=<plan|poisson|flash|wave>")
	}
	if r, ok := a["rate"]; ok {
		v, err := strconv.ParseFloat(r, 64)
		if err != nil {
			return nil, fmt.Errorf("rate %q is not a number", r)
		}
		c.Rate = v
	}
	if s, ok := a["seed"]; ok {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("seed %q is not a non-zero integer", s)
		}
		c.Seed = v
	}
	if m, ok := a["max"]; ok {
		n, err := strconv.Atoi(m)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("max %q is not a positive integer", m)
		}
		c.Max = n
	}
	switch p := a["policy"]; p {
	case "", "eager": // eager is the canonical default, which Format omits
	case "lazy":
		c.Lazy = true
	default:
		return nil, fmt.Errorf("policy %q is not eager or lazy", p)
	}
	if w, ok := a["slots"]; ok {
		// The "lo..hi" / "lo.." forms of fault-rule windows; "lo.." leaves
		// the window open-ended (End 0).
		loS, hiS, ranged := strings.Cut(w, "..")
		if !ranged {
			return nil, fmt.Errorf("slots %q is not lo..hi or lo..", w)
		}
		lo, err := strconv.Atoi(loS)
		if err != nil || lo < 0 {
			return nil, fmt.Errorf("slots start %q is not a slot number", loS)
		}
		c.Begin = core.Slot(lo)
		if hiS != "" {
			hi, err := strconv.Atoi(hiS)
			if err != nil || hi < 1 {
				return nil, fmt.Errorf("slots end %q is not a positive slot", hiS)
			}
			c.End = core.Slot(hi)
		}
	}
	return c, nil
}

// Load reads and parses a scenario file. A relative faults file reference
// is resolved against the scenario file's directory, so a scenario and its
// fault plan travel together.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	sc, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sc.FaultsFile != "" && !filepath.IsAbs(sc.FaultsFile) {
		sc.FaultsFile = filepath.Join(filepath.Dir(path), sc.FaultsFile)
	}
	return sc, nil
}

// Format renders the scenario in its canonical text form: fixed directive
// order, one sorted param per line, defaults omitted. Parse(Format(sc))
// reproduces sc exactly — the round-trip property FuzzScenario pins.
func (sc *Scenario) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme %s\n", sc.Scheme)
	names := make([]string, 0, len(sc.Params))
	for name := range sc.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "param %s=%s\n", name, sc.Params[name])
	}
	if sc.Mode != "" {
		fmt.Fprintf(&b, "mode %s\n", sc.Mode)
	}
	if sc.Packets > 0 {
		fmt.Fprintf(&b, "packets %d\n", sc.Packets)
	}
	if sc.Slots > 0 {
		fmt.Fprintf(&b, "slots %d\n", sc.Slots)
	}
	if sc.Parallel {
		if sc.Workers > 0 {
			fmt.Fprintf(&b, "parallel workers=%d\n", sc.Workers)
		} else {
			fmt.Fprintf(&b, "parallel\n")
		}
	}
	if sc.Check {
		fmt.Fprintf(&b, "check\n")
	}
	if sc.FaultsFile != "" {
		if sc.FaultSeed != 0 {
			fmt.Fprintf(&b, "faults file=%s seed=%d\n", sc.FaultsFile, sc.FaultSeed)
		} else {
			fmt.Fprintf(&b, "faults file=%s\n", sc.FaultsFile)
		}
	}
	if c := sc.Churn; c != nil {
		fmt.Fprintf(&b, "churn kind=%s", c.Kind)
		if c.Rate != 0 {
			fmt.Fprintf(&b, " rate=%s", strconv.FormatFloat(c.Rate, 'g', -1, 64))
		}
		if c.Seed != 0 {
			fmt.Fprintf(&b, " seed=%d", c.Seed)
		}
		if c.Max != 0 {
			fmt.Fprintf(&b, " max=%d", c.Max)
		}
		if c.Lazy {
			b.WriteString(" policy=lazy")
		}
		if c.End > 0 {
			fmt.Fprintf(&b, " slots=%d..%d", c.Begin, c.End)
		} else if c.Begin != 0 {
			fmt.Fprintf(&b, " slots=%d..", c.Begin)
		}
		b.WriteString("\n")
	}
	if sc.MetricsOut != "" || sc.TraceOut != "" || sc.ReportOut != "" {
		b.WriteString("out")
		if sc.MetricsOut != "" {
			fmt.Fprintf(&b, " metrics=%s", sc.MetricsOut)
		}
		if sc.TraceOut != "" {
			fmt.Fprintf(&b, " trace=%s", sc.TraceOut)
		}
		if sc.ReportOut != "" {
			fmt.Fprintf(&b, " report=%s", sc.ReportOut)
		}
		b.WriteString("\n")
	}
	return b.String()
}
