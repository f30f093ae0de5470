package faults

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzFaultPlan hardens the plan parser: arbitrary text must either be
// rejected with an error — the same one on every parse — or parse into a
// plan that (a) passes Validate, and (b) survives a Format/ParsePlan round
// trip bit-exactly. The parser must never panic. `make ci` runs this briefly as a fuzz smoke stage;
// `go test -fuzz FuzzFaultPlan ./internal/faults` digs deeper.
func FuzzFaultPlan(f *testing.F) {
	f.Add("")
	f.Add("# comment only\n\n")
	f.Add("seed 42\ncrash node=5 at=10\n")
	f.Add("loss from=any to=3 rate=0.05 slots=0..40\n")
	f.Add("delay from=2 to=any extra=3 rate=1 slots=10..\n")
	f.Add("join node=peer-1 at=15\nleave node=any at=25\n")
	f.Add("seed 1\nseed 2\n")
	f.Add("loss rate=NaN\n")
	f.Add("loss rate=1e-300 slots=0..\n")
	f.Add("crash node=99999999999999999999 at=1\n")
	f.Add(RandomPlan(3, GenOptions{Nodes: 9, Slots: 30, MaxCrash: 2, MaxLoss: 2, MaxDelay: 2, MaxChurn: 6}).Format())
	f.Add("loss rate=0.1 alpha=1 beta=2 gamma=3 delta=4\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePlan(src)
		if _, again := ParsePlan(src); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("two parses of one text disagree: %v, then %v\ninput: %q", err, again, src)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v\ninput: %q", err, src)
		}
		text := p.Format()
		back, err := ParsePlan(text)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical: %q\ninput: %q", err, text, src)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v\ncanonical: %q", back, p, text)
		}
		if again := back.Format(); again != text {
			t.Fatalf("Format not stable: %q vs %q", again, text)
		}
	})
}
