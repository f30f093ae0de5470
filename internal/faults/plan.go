package faults

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"streamcast/internal/core"
)

// Any is the wildcard node id in loss/delay link patterns: the rule matches
// every sender (From) or every receiver (To).
const Any core.NodeID = -1

// Forever marks an open-ended rule window ("slots=10.." in the text form).
const Forever core.Slot = 1<<31 - 1

// Kind enumerates the fault rule types.
type Kind uint8

const (
	// Crash fails a node permanently at a slot: from that slot on, every
	// transmission it would send or receive is lost in flight.
	Crash Kind = iota
	// Loss drops a matching transmission with a fixed probability, decided
	// by a seeded hash of the transmission coordinates.
	Loss
	// Delay stretches the link latency of a matching transmission by a
	// fixed number of extra slots, gated by the same seeded coin.
	Delay
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Loss:
		return "loss"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Rule is one fault directive of a plan. Which fields are meaningful
// depends on Kind: Crash uses Node and Begin (the crash slot); Loss uses
// From/To/Rate and the [Begin, End] window; Delay additionally uses Extra.
type Rule struct {
	Kind Kind
	// Node is the crashing node (Crash only).
	Node core.NodeID
	// From and To select the links a Loss/Delay rule applies to; Any is a
	// wildcard.
	From, To core.NodeID
	// Rate is the per-transmission fault probability in (0, 1].
	Rate float64
	// Extra is the added link latency in slots (Delay only, >= 1).
	Extra core.Slot
	// Begin and End bound the slots the rule is active in, inclusive.
	// End == Forever means the rule never expires.
	Begin, End core.Slot
}

// active reports whether the rule applies in slot t.
func (r *Rule) active(t core.Slot) bool { return t >= r.Begin && t <= r.End }

// matches reports whether the rule's link pattern covers from->to.
func (r *Rule) matches(from, to core.NodeID) bool {
	return (r.From == Any || r.From == from) && (r.To == Any || r.To == to)
}

// ChurnEvent is one membership change: a node arriving (join) or departing
// (leave) at a slot. Departures may name the wildcard "any", resolved
// deterministically from the plan seed against the live member set.
type ChurnEvent struct {
	At    core.Slot
	Leave bool
	// Name is the member name; for a Leave it may be AnyName.
	Name string
}

// AnyName is the wildcard member name in a leave event: the departing
// member is picked deterministically (seeded hash over the event index)
// from the family's live members.
const AnyName = "any"

// Plan is a complete deterministic fault schedule. The zero value is a
// valid empty plan (seed 0, no faults).
type Plan struct {
	// Seed drives every probabilistic decision. Two runs of the same plan,
	// scheme, and engine options are bit-identical.
	Seed int64
	// Rules are the crash/loss/delay directives, in file order.
	Rules []Rule
	// Churn are the membership events, in file order; they are applied in
	// slot order (stable for equal slots).
	Churn []ChurnEvent
}

// ChurnInOrder returns the churn events sorted by slot, stable for equal
// slots (file order breaks ties).
func (p *Plan) ChurnInOrder() []ChurnEvent {
	out := append([]ChurnEvent(nil), p.Churn...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks every rule and event for well-formedness, reporting the
// first problem with its rule/event index.
func (p *Plan) Validate() error {
	for i, r := range p.Rules {
		if err := validateRule(r); err != nil {
			return fmt.Errorf("faults: rule %d (%s): %w", i+1, r.Kind, err)
		}
	}
	for i, e := range p.Churn {
		if err := validateChurn(e); err != nil {
			return fmt.Errorf("faults: churn event %d: %w", i+1, err)
		}
	}
	return nil
}

func validateRule(r Rule) error {
	switch r.Kind {
	case Crash:
		if r.Node < 0 {
			return fmt.Errorf("crash node must be a concrete id >= 0, got %d", r.Node)
		}
		if r.Begin < 0 {
			return fmt.Errorf("crash slot must be >= 0, got %d", r.Begin)
		}
	case Loss, Delay:
		if r.From < Any || r.To < Any {
			return fmt.Errorf("link ids must be >= 0 or wildcard, got %d->%d", r.From, r.To)
		}
		if !(r.Rate > 0 && r.Rate <= 1) { // negated form also rejects NaN
			return fmt.Errorf("rate must be in (0, 1], got %v", r.Rate)
		}
		if r.Begin < 0 || r.End < r.Begin {
			return fmt.Errorf("slot window %d..%d is empty or negative", r.Begin, r.End)
		}
		if r.Kind == Delay && r.Extra < 1 {
			return fmt.Errorf("delay extra must be >= 1 slot, got %d", r.Extra)
		}
	default:
		return fmt.Errorf("unknown rule kind %d", r.Kind)
	}
	return nil
}

func validateChurn(e ChurnEvent) error {
	if e.At < 0 {
		return fmt.Errorf("slot must be >= 0, got %d", e.At)
	}
	if e.Name == "" {
		return fmt.Errorf("member name must not be empty")
	}
	if strings.ContainsAny(e.Name, " \t\n#") {
		return fmt.Errorf("member name %q must not contain whitespace or '#'", e.Name)
	}
	if !e.Leave && e.Name == AnyName {
		return fmt.Errorf("join member name %q is reserved for leave events", AnyName)
	}
	return nil
}

// ParsePlan reads the text form of a fault plan. The format is line based:
//
//	# comment; blank lines are ignored
//	seed 42
//	crash node=5 at=10
//	loss  from=any to=3 rate=0.05 slots=0..40
//	delay from=2 to=any extra=3 rate=1 slots=10..
//	join  node=peer-1 at=15
//	leave node=node-7 at=20
//	leave node=any at=25
//
// Every diagnostic carries the 1-based line number and the offending
// directive, so a corrupted plan is rejected precisely, not mysteriously.
func ParsePlan(src string) (*Plan, error) {
	p := &Plan{}
	seenSeed := false
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		directive := fields[0]
		var a map[string]string
		if directive != "seed" {
			allowed, ok := planKeys[directive]
			if !ok {
				return nil, fmt.Errorf("faults: line %d: unknown directive %q (want seed, crash, loss, delay, join, or leave)", ln+1, directive)
			}
			var err error
			if a, err = ParseArgs(fields[1:], allowed...); err != nil {
				return nil, fmt.Errorf("faults: line %d: %s: %w", ln+1, directive, err)
			}
		}
		switch directive {
		case "seed":
			if seenSeed {
				return nil, fmt.Errorf("faults: line %d: duplicate seed directive", ln+1)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("faults: line %d: seed takes exactly one integer", ln+1)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: line %d: seed %q is not an integer", ln+1, fields[1])
			}
			p.Seed = v
			seenSeed = true
		case "crash", "loss", "delay":
			r := ruleDefaults[directive]
			if err := applyArgs(&r, a); err != nil {
				return nil, fmt.Errorf("faults: line %d: %s: %w", ln+1, directive, err)
			}
			if err := validateRule(r); err != nil {
				return nil, fmt.Errorf("faults: line %d: %s: %w", ln+1, directive, err)
			}
			p.Rules = append(p.Rules, r)
		case "join", "leave":
			e := ChurnEvent{Leave: directive == "leave"}
			name, ok := a["node"]
			if !ok {
				return nil, fmt.Errorf("faults: line %d: %s: missing node=<name>", ln+1, directive)
			}
			e.Name = name
			at, ok := a["at"]
			if !ok {
				return nil, fmt.Errorf("faults: line %d: %s: missing at=<slot>", ln+1, directive)
			}
			s, err := parseSlot(at)
			if err != nil {
				return nil, fmt.Errorf("faults: line %d: %s: at: %w", ln+1, directive, err)
			}
			e.At = s
			if err := validateChurn(e); err != nil {
				return nil, fmt.Errorf("faults: line %d: %s: %w", ln+1, directive, err)
			}
			p.Churn = append(p.Churn, e)
		}
	}
	return p, nil
}

// Load reads and parses a plan file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	p, err := ParsePlan(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// planKeys are the arguments each plan directive but seed accepts.
var planKeys = map[string][]string{
	"crash": {"node", "at"},
	"loss":  {"from", "to", "rate", "slots"},
	"delay": {"from", "to", "rate", "extra", "slots"},
	"join":  {"node", "at"},
	"leave": {"node", "at"},
}

// ParseArgs reads a directive's key=value arguments, the syntax fault plans
// and scenario text share. It reports the first malformed, repeated or
// unknown argument in line order; the caller prefixes the line and the
// directive.
func ParseArgs(fields []string, allowed ...string) (map[string]string, error) {
	a := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("argument %q is not key=value", f)
		}
		if _, dup := a[k]; dup {
			return nil, fmt.Errorf("duplicate argument %q", k)
		}
		if !slices.Contains(allowed, k) {
			return nil, fmt.Errorf("unknown argument %q (want %s)", k, strings.Join(allowed, ", "))
		}
		a[k] = v
	}
	return a, nil
}

// ruleDefaults are the fields each rule directive starts from.
var ruleDefaults = map[string]Rule{
	"crash": {Kind: Crash, End: Forever},
	"loss":  {Kind: Loss, From: Any, To: Any, End: Forever},
	"delay": {Kind: Delay, From: Any, To: Any, Rate: 1, End: Forever},
}

// applyArgs fills rule fields from its directive's arguments, which
// ParseArgs has already checked against planKeys.
func applyArgs(r *Rule, a map[string]string) error {
	required := map[string]bool{}
	switch r.Kind {
	case Crash:
		required["node"], required["at"] = true, true
	case Loss:
		required["rate"] = true
	}
	for _, key := range planKeys[r.Kind.String()] {
		v, ok := a[key]
		if !ok {
			if required[key] {
				return fmt.Errorf("missing %s=<value>", key)
			}
			continue
		}
		switch key {
		case "node":
			id, err := parseNode(v, false)
			if err != nil {
				return fmt.Errorf("node: %w", err)
			}
			r.Node = id
		case "at":
			s, err := parseSlot(v)
			if err != nil {
				return fmt.Errorf("at: %w", err)
			}
			r.Begin = s
		case "from":
			id, err := parseNode(v, true)
			if err != nil {
				return fmt.Errorf("from: %w", err)
			}
			r.From = id
		case "to":
			id, err := parseNode(v, true)
			if err != nil {
				return fmt.Errorf("to: %w", err)
			}
			r.To = id
		case "rate":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("rate %q is not a number", v)
			}
			r.Rate = f
		case "extra":
			s, err := parseSlot(v)
			if err != nil {
				return fmt.Errorf("extra: %w", err)
			}
			r.Extra = s
		case "slots":
			lo, hi, err := parseWindow(v)
			if err != nil {
				return fmt.Errorf("slots: %w", err)
			}
			r.Begin, r.End = lo, hi
		}
	}
	return nil
}

func parseNode(v string, wildcard bool) (core.NodeID, error) {
	if v == "any" {
		if !wildcard {
			return 0, fmt.Errorf("wildcard not allowed here")
		}
		return Any, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a node id (integer >= 0 or any)", v)
	}
	return core.NodeID(n), nil
}

func parseSlot(v string) (core.Slot, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a slot (integer >= 0)", v)
	}
	return core.Slot(n), nil
}

// parseWindow parses "lo..hi", "lo.." (open end), or "lo" (single slot).
func parseWindow(v string) (lo, hi core.Slot, err error) {
	loS, hiS, ranged := strings.Cut(v, "..")
	lo, err = parseSlot(loS)
	if err != nil {
		return 0, 0, err
	}
	if !ranged {
		return lo, lo, nil
	}
	if hiS == "" {
		return lo, Forever, nil
	}
	hi, err = parseSlot(hiS)
	if err != nil {
		return 0, 0, err
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("window %q is empty (end before begin)", v)
	}
	return lo, hi, nil
}

// Format renders the plan in its canonical text form; ParsePlan(Format(p))
// reproduces p exactly (the round-trip property the fuzz target pins).
func (p *Plan) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", p.Seed)
	for _, r := range p.Rules {
		switch r.Kind {
		case Crash:
			fmt.Fprintf(&b, "crash node=%d at=%d\n", r.Node, r.Begin)
		case Loss:
			fmt.Fprintf(&b, "loss from=%s to=%s rate=%s slots=%s\n",
				fmtNode(r.From), fmtNode(r.To), fmtRate(r.Rate), fmtWindow(r.Begin, r.End))
		case Delay:
			fmt.Fprintf(&b, "delay from=%s to=%s extra=%d rate=%s slots=%s\n",
				fmtNode(r.From), fmtNode(r.To), r.Extra, fmtRate(r.Rate), fmtWindow(r.Begin, r.End))
		}
	}
	for _, e := range p.Churn {
		verb := "join"
		if e.Leave {
			verb = "leave"
		}
		fmt.Fprintf(&b, "%s node=%s at=%d\n", verb, e.Name, e.At)
	}
	return b.String()
}

func fmtNode(id core.NodeID) string {
	if id == Any {
		return "any"
	}
	return strconv.Itoa(int(id))
}

func fmtRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

func fmtWindow(lo, hi core.Slot) string {
	if hi == Forever {
		return fmt.Sprintf("%d..", lo)
	}
	if lo == hi {
		return strconv.Itoa(int(lo))
	}
	return fmt.Sprintf("%d..%d", lo, hi)
}
