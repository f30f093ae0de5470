package faults

import (
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/core"
)

func TestParsePlanFull(t *testing.T) {
	src := `
# a full plan exercising every directive
seed 42
crash node=5 at=10
loss from=any to=3 rate=0.05 slots=0..40
loss from=2 to=any rate=1 slots=7
delay from=2 to=any extra=3 rate=0.5 slots=10..
join node=peer-1 at=15
leave node=node-7 at=20
leave node=any at=25
`
	p, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Seed: 42,
		Rules: []Rule{
			{Kind: Crash, Node: 5, Begin: 10, End: Forever},
			{Kind: Loss, From: Any, To: 3, Rate: 0.05, Begin: 0, End: 40},
			{Kind: Loss, From: 2, To: Any, Rate: 1, Begin: 7, End: 7},
			{Kind: Delay, From: 2, To: Any, Rate: 0.5, Extra: 3, Begin: 10, End: Forever},
		},
		Churn: []ChurnEvent{
			{At: 15, Name: "peer-1"},
			{At: 20, Leave: true, Name: "node-7"},
			{At: 25, Leave: true, Name: AnyName},
		},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed plan mismatch:\n got %+v\nwant %+v", p, want)
	}
}

// TestFormatRoundTrip: ParsePlan(Format(p)) == p for hand-built and
// generated plans.
func TestFormatRoundTrip(t *testing.T) {
	plans := []*Plan{
		{},
		{Seed: -3, Rules: []Rule{{Kind: Crash, Node: 1, Begin: 0, End: Forever}}},
	}
	for seed := int64(0); seed < 20; seed++ {
		plans = append(plans, RandomPlan(seed, GenOptions{
			Nodes: 30, Slots: 60, MaxCrash: 3, MaxLoss: 3, MaxDelay: 3, MaxChurn: 8,
		}))
	}
	for i, p := range plans {
		text := p.Format()
		back, err := ParsePlan(text)
		if err != nil {
			t.Fatalf("plan %d: reparse of\n%s: %v", i, text, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("plan %d: round trip mismatch:\n got %+v\nwant %+v\ntext:\n%s", i, back, p, text)
		}
	}
}

// TestParsePlanDiagnostics: seeded corruptions are rejected with the line
// number and the offending detail — the acceptance criterion for precise
// diagnostics.
func TestParsePlanDiagnostics(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown directive", "boom node=1 at=2", `line 1: unknown directive "boom"`},
		{"bad seed", "seed x", `seed "x" is not an integer`},
		{"duplicate seed", "seed 1\nseed 2", "line 2: duplicate seed"},
		{"crash missing node", "crash at=3", "crash: missing node=<value>"},
		{"crash missing at", "crash node=3", "crash: missing at=<value>"},
		{"crash wildcard", "crash node=any at=1", "wildcard not allowed"},
		{"loss missing rate", "loss from=1 to=2", "loss: missing rate=<value>"},
		{"loss rate zero", "loss rate=0", "rate must be in (0, 1]"},
		{"loss rate big", "loss rate=1.5", "rate must be in (0, 1]"},
		{"loss rate nan", "loss rate=NaN", "rate must be in (0, 1]"},
		{"loss bad window", "loss rate=0.1 slots=9..4", `window "9..4" is empty`},
		{"loss unknown key", "loss rate=0.1 extra=2", `unknown argument "extra"`},
		{"delay no extra", "delay from=1 to=2", "delay extra must be >= 1"},
		{"delay extra zero", "delay extra=0", "delay extra must be >= 1"},
		{"join no node", "join at=4", "join: missing node=<name>"},
		{"join no at", "join node=x", "join: missing at=<slot>"},
		{"join reserved any", "join node=any at=1", `reserved for leave`},
		{"not key=value", "loss rate", `argument "rate" is not key=value`},
		{"duplicate key", "loss rate=0.1 rate=0.2", `duplicate argument "rate"`},
		{"negative node", "loss from=-2 rate=0.1", `"-2" is not a node id`},
		{"line number", "seed 1\n\ncrash node=1 at=2\nloss rate=2", "line 4"},
	}
	for _, c := range cases {
		_, err := ParsePlan(c.src)
		if err == nil {
			t.Errorf("%s: corruption accepted: %q", c.name, c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: diagnostic %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestUnknownArgumentInLineOrder: of several unknown arguments, the first in
// line order is the one named, on every parse. A reader that walked a map
// named a different one from run to run.
func TestUnknownArgumentInLineOrder(t *testing.T) {
	for i := 0; i < 50; i++ {
		_, err := ParsePlan("loss rate=0.1 alpha=1 beta=2 gamma=3 delta=4")
		if err == nil || !strings.Contains(err.Error(), `unknown argument "alpha"`) {
			t.Fatalf("parse %d: got %v, want the unknown argument \"alpha\"", i, err)
		}
	}
}

func TestValidateRejectsBadStructs(t *testing.T) {
	bad := []*Plan{
		{Rules: []Rule{{Kind: Crash, Node: -1}}},
		{Rules: []Rule{{Kind: Loss, From: Any, To: Any, Rate: 0, End: 1}}},
		{Rules: []Rule{{Kind: Delay, From: Any, To: Any, Rate: 1, Extra: 0, End: 1}}},
		{Rules: []Rule{{Kind: Kind(9)}}},
		{Churn: []ChurnEvent{{At: -1, Name: "x"}}},
		{Churn: []ChurnEvent{{Name: ""}}},
		{Churn: []ChurnEvent{{Name: "a b"}}},
		{Churn: []ChurnEvent{{Name: AnyName}}}, // join of "any"
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestChurnInOrderStable(t *testing.T) {
	p := &Plan{Churn: []ChurnEvent{
		{At: 9, Name: "c"}, {At: 1, Name: "a"}, {At: 9, Name: "d", Leave: true}, {At: 1, Name: "b"},
	}}
	got := p.ChurnInOrder()
	wantNames := []string{"a", "b", "c", "d"}
	for i, e := range got {
		if e.Name != wantNames[i] {
			t.Fatalf("order %d: got %s, want %s (full: %+v)", i, e.Name, wantNames[i], got)
		}
	}
	// The plan's own slice is untouched.
	if p.Churn[0].Name != "c" {
		t.Error("ChurnInOrder mutated the plan")
	}
}

func TestWindowForms(t *testing.T) {
	cases := map[string][2]core.Slot{
		"5":     {5, 5},
		"3..8":  {3, 8},
		"4..":   {4, Forever},
		"0..0":  {0, 0},
		"7..7":  {7, 7},
		"0..":   {0, Forever},
		"12..9": {0, 0}, // error case, checked below
	}
	for in, want := range cases {
		lo, hi, err := parseWindow(in)
		if in == "12..9" {
			if err == nil {
				t.Errorf("empty window %q accepted", in)
			}
			continue
		}
		if err != nil {
			t.Errorf("window %q: %v", in, err)
			continue
		}
		if lo != want[0] || hi != want[1] {
			t.Errorf("window %q = %d..%d, want %d..%d", in, lo, hi, want[0], want[1])
		}
	}
}
