package spec

import (
	"reflect"
	"testing"
)

// FuzzScenario hardens the scenario parser exactly as FuzzFaultPlan
// hardens the fault-plan parser: arbitrary text must either be rejected
// with an error or parse into a scenario that (a) passes Validate, and
// (b) survives a Format/Parse round trip bit-exactly. The parser must
// never panic. `make ci` runs this briefly as a fuzz smoke stage;
// `go test -fuzz FuzzScenario ./internal/spec` digs deeper.
func FuzzScenario(f *testing.F) {
	f.Add("")
	f.Add("# comment only\n\n")
	f.Add("scheme multitree\n")
	f.Add("scheme multitree\nparam construction=structured d=4 n=255\nmode prebuffered\npackets 16\nslots 99\n")
	f.Add("scheme hypercube\nparam d=2 n=500\ncheck\n")
	f.Add("scheme cluster\nparam D=3 k=9 tc=5\n")
	f.Add("scheme gossip\nparam seed=42 strategy=pull-newest\nparallel workers=4\n")
	f.Add("scheme gossip\nparam n=3 degree=5\n") // more neighbors asked for than peers exist
	// A parameter no family accepts.
	f.Add("scheme multitree\nparam swaps=14:3:9,20:1:2\n")
	// A directive that no longer exists.
	f.Add("scheme mdc\nparam rounds=4\nengine runtime\n")
	f.Add("scheme chain\nfaults file=chaos.plan seed=7\nout metrics=m.prom trace=t.jsonl report=r.json\n")
	f.Add("scheme multitree\nscheme multitree\n")
	f.Add("scheme multitree\nparam n=99999999999999999999\n")
	f.Add("scheme multitree\nchurn kind=poisson rate=0.5 seed=11 max=20 policy=lazy slots=10..60\n")
	f.Add("scheme multitree\nchurn kind=flash rate=2 slots=0..40\nparallel workers=4\n")
	f.Add("scheme multitree\nchurn kind=plan\nfaults file=chaos.plan\n")
	f.Add("scheme multitree\nchurn kind=wave rate=1e-3 slots=3..\n")
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("accepted scenario fails Validate: %v\ninput: %q", err, src)
		}
		text := sc.Format()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ncanonical: %q\ninput: %q", err, text, src)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip changed the scenario:\n got %+v\nwant %+v\ncanonical: %q", back, sc, text)
		}
		if again := back.Format(); again != text {
			t.Fatalf("Format not stable: %q vs %q", again, text)
		}
	})
}
