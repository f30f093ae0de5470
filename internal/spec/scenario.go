package spec

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"streamcast/internal/core"
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
	// ChurnKind selects a live, mid-run churn source ("plan", "poisson",
	// "flash", "wave"); empty means no live churn. Live churn requires a
	// family with the LiveChurn capability (multitree).
	ChurnKind string
	// ChurnRate is the expected membership ops per slot for the generator
	// kinds (the peak rate for flash/wave); it must be 0 for kind=plan.
	ChurnRate float64
	// ChurnSeed drives every stochastic churn verdict; 0 means the fault
	// plan's seed (kind=plan) or literally seed 0.
	ChurnSeed int64
	// ChurnPolicy selects the repair variant: "" (eager, the canonical
	// default) or "lazy".
	ChurnPolicy string
	// ChurnMax is the join budget; 0 means the family default (the plan's
	// join count for kind=plan, n otherwise).
	ChurnMax int
	// ChurnBegin and ChurnEnd bound the generator's active window in slots;
	// ChurnEnd 0 means open-ended. Ignored (and required zero) for
	// kind=plan.
	ChurnBegin int
	ChurnEnd   int
	// MetricsOut, TraceOut, ReportOut are the observability outputs
	// ("-" = stdout, empty = off).
	MetricsOut string
	TraceOut   string
	ReportOut  string
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

// Validate checks the scenario against the registry: the family must
// exist, every parameter must be declared and well-typed, the mode must be
// one the family runs in, and check/fault/churn combinations must be
// executable. Scenarios built as values and parsed ones go through the same
// checks.
func (sc *Scenario) Validate() error {
	if sc.Scheme == "" {
		return fmt.Errorf("spec: no scheme selected")
	}
	f := Lookup(sc.Scheme)
	if f == nil {
		return fmt.Errorf("spec: unknown scheme %q (registered: %s)",
			sc.Scheme, strings.Join(SchemeNames(), ", "))
	}
	if _, err := f.resolve(sc.Params); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if sc.Mode != "" {
		m, ok := modeNames[sc.Mode]
		if !ok {
			return fmt.Errorf("spec: unknown mode %q (want prerecorded, live, or prebuffered)", sc.Mode)
		}
		if f.InternalMode {
			return fmt.Errorf("spec: scheme %s manages its stream mode internally; drop the mode directive", sc.Scheme)
		}
		if f.HasForcedMode && m != f.ForcedMode {
			return fmt.Errorf("spec: scheme %s always runs in %s mode; mode %s would be ignored",
				sc.Scheme, modeWord(f.ForcedMode), sc.Mode)
		}
	}
	if sc.Packets < 0 {
		return fmt.Errorf("spec: packets must be >= 0, got %d", sc.Packets)
	}
	if sc.Slots < 0 {
		return fmt.Errorf("spec: slots must be >= 0, got %d", sc.Slots)
	}
	if sc.Workers != 0 && !sc.Parallel {
		return fmt.Errorf("spec: workers is only meaningful with parallel; it would be ignored")
	}
	if sc.Workers < 0 {
		return fmt.Errorf("spec: workers must be >= 0, got %d", sc.Workers)
	}
	if sc.Workers > maxWorkers {
		return fmt.Errorf("spec: workers must be <= %d, got %d (the directive is accepted and ignored — the engine is single-threaded and results never depended on worker count — but a count this large is a typo)", maxWorkers, sc.Workers)
	}
	if sc.Check && !f.Caps.StaticCheck {
		return fmt.Errorf("spec: scheme %s is not statically checkable (no closed-form schedule for internal/check); drop the check directive", sc.Scheme)
	}
	if sc.FaultSeed != 0 && sc.FaultsFile == "" {
		return fmt.Errorf("spec: fault seed without a fault plan; it would be ignored")
	}
	if err := sc.validateChurn(f); err != nil {
		return err
	}
	return nil
}

// churnKinds are the accepted churn directive kinds (matching the
// internal/faults live-churn sources).
var churnKinds = map[string]bool{"plan": true, "poisson": true, "flash": true, "wave": true}

// validateChurn checks the live-churn half of the scenario: without a kind
// every churn field must be zero (nothing may be silently ignored); with
// one, the family and per-kind parameter rules apply.
func (sc *Scenario) validateChurn(f *Family) error {
	if sc.ChurnKind == "" {
		if sc.ChurnRate != 0 || sc.ChurnSeed != 0 || sc.ChurnPolicy != "" ||
			sc.ChurnMax != 0 || sc.ChurnBegin != 0 || sc.ChurnEnd != 0 {
			return fmt.Errorf("spec: churn parameters without a churn kind; they would be ignored")
		}
		return nil
	}
	if !churnKinds[sc.ChurnKind] {
		return fmt.Errorf("spec: unknown churn kind %q (want plan, poisson, flash, or wave)", sc.ChurnKind)
	}
	if !f.Caps.LiveChurn {
		return fmt.Errorf("spec: scheme %s cannot run live churn (no dynamic topology); only churn-capable families (multitree) accept the churn directive", sc.Scheme)
	}
	if sc.Check {
		return fmt.Errorf("spec: check verifies a static schedule; it cannot preflight a topology that mutates mid-run — drop check or the churn directive")
	}
	if sc.Params["construction"] == "structured" {
		return fmt.Errorf("spec: live churn runs on the dynamic (greedy-based) family; construction=structured cannot churn")
	}
	if sc.ChurnPolicy != "" && sc.ChurnPolicy != "lazy" {
		return fmt.Errorf("spec: churn policy %q is not eager or lazy", sc.ChurnPolicy)
	}
	if sc.ChurnMax < 0 || sc.ChurnBegin < 0 || sc.ChurnEnd < 0 {
		return fmt.Errorf("spec: churn max and slots must be >= 0")
	}
	if sc.ChurnKind == "plan" {
		if sc.ChurnRate != 0 {
			return fmt.Errorf("spec: churn kind=plan takes its events from the fault plan; rate would be ignored")
		}
		if sc.ChurnBegin != 0 || sc.ChurnEnd != 0 {
			return fmt.Errorf("spec: churn kind=plan events carry their own slots; the slots window would be ignored")
		}
		return nil
	}
	if !(sc.ChurnRate > 0) {
		return fmt.Errorf("spec: churn kind=%s needs rate > 0", sc.ChurnKind)
	}
	if sc.ChurnEnd > 0 && sc.ChurnEnd < sc.ChurnBegin {
		return fmt.Errorf("spec: churn window %d..%d is empty", sc.ChurnBegin, sc.ChurnEnd)
	}
	if sc.ChurnKind == "flash" && sc.ChurnEnd == 0 {
		return fmt.Errorf("spec: churn kind=flash needs a bounded slots window (the crowd must drain)")
	}
	return nil
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
// Every diagnostic carries the 1-based line number and the offending
// directive. Parse validates the result against the registry, so a
// parameter the selected scheme would ignore is an error, not a no-op.
// Format renders the canonical form; Parse(Format(sc)) reproduces sc.
func Parse(src string) (*Scenario, error) {
	sc := &Scenario{}
	seen := map[string]int{}
	once := func(ln int, directive string) error {
		if prev, dup := seen[directive]; dup {
			return fmt.Errorf("spec: line %d: duplicate %s directive (first on line %d)", ln, directive, prev)
		}
		seen[directive] = ln
		return nil
	}
	for i, raw := range strings.Split(src, "\n") {
		ln := i + 1
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		directive := fields[0]
		rest := fields[1:]
		switch directive {
		case "scheme":
			if err := once(ln, directive); err != nil {
				return nil, err
			}
			if len(rest) != 1 {
				return nil, fmt.Errorf("spec: line %d: scheme takes exactly one name", ln)
			}
			sc.Scheme = rest[0]
		case "param":
			if len(rest) == 0 {
				return nil, fmt.Errorf("spec: line %d: param needs at least one name=value", ln)
			}
			for _, f := range rest {
				k, v, ok := strings.Cut(f, "=")
				if !ok || k == "" || v == "" {
					return nil, fmt.Errorf("spec: line %d: param argument %q is not name=value", ln, f)
				}
				if _, dup := sc.Params[k]; dup {
					return nil, fmt.Errorf("spec: line %d: duplicate parameter %q", ln, k)
				}
				sc.setParam(k, v)
			}
		case "mode":
			if err := once(ln, directive); err != nil {
				return nil, err
			}
			if len(rest) != 1 {
				return nil, fmt.Errorf("spec: line %d: mode takes exactly one of prerecorded, live, prebuffered", ln)
			}
			if _, ok := modeNames[rest[0]]; !ok {
				return nil, fmt.Errorf("spec: line %d: unknown mode %q (want prerecorded, live, or prebuffered)", ln, rest[0])
			}
			sc.Mode = rest[0]
		case "packets", "slots":
			if err := once(ln, directive); err != nil {
				return nil, err
			}
			if len(rest) != 1 {
				return nil, fmt.Errorf("spec: line %d: %s takes exactly one integer", ln, directive)
			}
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("spec: line %d: %s %q is not a positive integer", ln, directive, rest[0])
			}
			if directive == "packets" {
				sc.Packets = n
			} else {
				sc.Slots = n
			}
		case "parallel":
			if err := once(ln, directive); err != nil {
				return nil, err
			}
			sc.Parallel = true
			a, err := parseArgs(ln, directive, rest, "workers")
			if err != nil {
				return nil, err
			}
			if w, ok := a["workers"]; ok {
				n, err := strconv.Atoi(w)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("spec: line %d: parallel: workers %q is not a positive integer", ln, w)
				}
				sc.Workers = n
			}
		case "check":
			if err := once(ln, directive); err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("spec: line %d: check takes no arguments", ln)
			}
			sc.Check = true
		case "faults":
			if err := once(ln, directive); err != nil {
				return nil, err
			}
			a, err := parseArgs(ln, directive, rest, "file", "seed")
			if err != nil {
				return nil, err
			}
			file, ok := a["file"]
			if !ok {
				return nil, fmt.Errorf("spec: line %d: faults: missing file=<path>", ln)
			}
			sc.FaultsFile = file
			if s, ok := a["seed"]; ok {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil || v == 0 {
					return nil, fmt.Errorf("spec: line %d: faults: seed %q is not a non-zero integer", ln, s)
				}
				sc.FaultSeed = v
			}
		case "churn":
			if err := once(ln, directive); err != nil {
				return nil, err
			}
			a, err := parseArgs(ln, directive, rest, "kind", "rate", "seed", "max", "policy", "slots")
			if err != nil {
				return nil, err
			}
			kind, ok := a["kind"]
			if !ok {
				return nil, fmt.Errorf("spec: line %d: churn: missing kind=<plan|poisson|flash|wave>", ln)
			}
			if !churnKinds[kind] {
				return nil, fmt.Errorf("spec: line %d: churn: unknown kind %q (want plan, poisson, flash, or wave)", ln, kind)
			}
			sc.ChurnKind = kind
			if r, ok := a["rate"]; ok {
				v, err := strconv.ParseFloat(r, 64)
				if err != nil || !(v > 0) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("spec: line %d: churn: rate %q is not a positive finite number", ln, r)
				}
				sc.ChurnRate = v
			}
			if s, ok := a["seed"]; ok {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil || v == 0 {
					return nil, fmt.Errorf("spec: line %d: churn: seed %q is not a non-zero integer", ln, s)
				}
				sc.ChurnSeed = v
			}
			if m, ok := a["max"]; ok {
				n, err := strconv.Atoi(m)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("spec: line %d: churn: max %q is not a positive integer", ln, m)
				}
				sc.ChurnMax = n
			}
			if p, ok := a["policy"]; ok {
				switch p {
				case "eager":
					// The canonical default; stored as empty so Format omits it.
				case "lazy":
					sc.ChurnPolicy = "lazy"
				default:
					return nil, fmt.Errorf("spec: line %d: churn: policy %q is not eager or lazy", ln, p)
				}
			}
			if w, ok := a["slots"]; ok {
				lo, hi, err := parseChurnWindow(w)
				if err != nil {
					return nil, fmt.Errorf("spec: line %d: churn: %w", ln, err)
				}
				sc.ChurnBegin, sc.ChurnEnd = lo, hi
			}
		case "out":
			if err := once(ln, directive); err != nil {
				return nil, err
			}
			a, err := parseArgs(ln, directive, rest, "metrics", "trace", "report")
			if err != nil {
				return nil, err
			}
			if len(a) == 0 {
				return nil, fmt.Errorf("spec: line %d: out needs at least one of metrics=, trace=, report=", ln)
			}
			sc.MetricsOut = a["metrics"]
			sc.TraceOut = a["trace"]
			sc.ReportOut = a["report"]
		default:
			return nil, fmt.Errorf("spec: line %d: unknown directive %q (want scheme, param, mode, packets, slots, parallel, check, faults, churn, or out)", ln, directive)
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseChurnWindow parses the churn directive's "lo..hi" / "lo.." window
// forms (mirroring fault-rule windows). An explicit end must be a positive
// slot at or after the start; "lo.." leaves the window open-ended (End 0).
func parseChurnWindow(v string) (lo, hi int, err error) {
	loS, hiS, ranged := strings.Cut(v, "..")
	if !ranged {
		return 0, 0, fmt.Errorf("slots %q is not lo..hi or lo..", v)
	}
	lo, err = strconv.Atoi(loS)
	if err != nil || lo < 0 {
		return 0, 0, fmt.Errorf("slots start %q is not a slot number", loS)
	}
	if hiS == "" {
		return lo, 0, nil
	}
	hi, err = strconv.Atoi(hiS)
	if err != nil || hi < 1 || hi < lo {
		return 0, 0, fmt.Errorf("slots end %q is not a positive slot at or after %d", hiS, lo)
	}
	return lo, hi, nil
}

// parseArgs parses key=value directive arguments restricted to an allowed
// key set, with line-precise diagnostics.
func parseArgs(ln int, directive string, fields []string, allowed ...string) (map[string]string, error) {
	a := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("spec: line %d: %s: argument %q is not key=value", ln, directive, f)
		}
		if _, dup := a[k]; dup {
			return nil, fmt.Errorf("spec: line %d: %s: duplicate argument %q", ln, directive, k)
		}
		found := false
		for _, want := range allowed {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("spec: line %d: %s: unknown argument %q (want %s)",
				ln, directive, k, strings.Join(allowed, ", "))
		}
		a[k] = v
	}
	return a, nil
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
	if sc.ChurnKind != "" {
		fmt.Fprintf(&b, "churn kind=%s", sc.ChurnKind)
		if sc.ChurnRate != 0 {
			fmt.Fprintf(&b, " rate=%s", strconv.FormatFloat(sc.ChurnRate, 'g', -1, 64))
		}
		if sc.ChurnSeed != 0 {
			fmt.Fprintf(&b, " seed=%d", sc.ChurnSeed)
		}
		if sc.ChurnMax != 0 {
			fmt.Fprintf(&b, " max=%d", sc.ChurnMax)
		}
		if sc.ChurnPolicy != "" {
			fmt.Fprintf(&b, " policy=%s", sc.ChurnPolicy)
		}
		if sc.ChurnBegin != 0 || sc.ChurnEnd != 0 {
			if sc.ChurnEnd > 0 {
				fmt.Fprintf(&b, " slots=%d..%d", sc.ChurnBegin, sc.ChurnEnd)
			} else {
				fmt.Fprintf(&b, " slots=%d..", sc.ChurnBegin)
			}
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
