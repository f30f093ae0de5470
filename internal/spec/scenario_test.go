package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseFull(t *testing.T) {
	src := `
# a full scenario
scheme multitree
param n=60 d=3
param construction=structured
mode live
packets 12
slots 80
parallel workers=4
check
faults file=chaos.plan seed=7
out metrics=m.prom trace=t.jsonl report=r.json
`
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := &Scenario{
		Scheme: "multitree",
		Params: map[string]string{"n": "60", "d": "3", "construction": "structured"},
		Mode:   "live", Packets: 12, Slots: 80,
		Parallel: true, Workers: 4, Check: true,
		FaultsFile: "chaos.plan", FaultSeed: 7,
		MetricsOut: "m.prom", TraceOut: "t.jsonl", ReportOut: "r.json",
	}
	if !reflect.DeepEqual(sc, want) {
		t.Fatalf("parsed %+v, want %+v", sc, want)
	}
}

func TestParseMinimal(t *testing.T) {
	for _, name := range SchemeNames() {
		sc, err := Parse("scheme " + name + "\n")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Scheme != name {
			t.Fatalf("scheme = %q, want %q", sc.Scheme, name)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	cases := []string{
		"scheme multitree\n",
		"scheme hypercube\nparam d=2 n=500\n",
		"scheme multitree\nparam construction=structured d=4 n=255\nmode prebuffered\npackets 16\n",
		"scheme cluster\nparam D=3 k=9 tc=5\nslots 200\n",
		"scheme gossip\nparam seed=42 strategy=pull-newest\n",
		"scheme multitree\nparam n=30\nfaults file=x.plan\nchurn kind=plan policy=lazy\n",
		"scheme singletree\nparam d=2 n=50\nparallel\ncheck\n",
		"scheme mdc\nparam rounds=4\n",
	}
	for _, src := range cases {
		sc, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		text := sc.Format()
		sc2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q: %v", text, err)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Errorf("round trip of %q changed the scenario:\n%+v\n%+v", src, sc, sc2)
		}
		if again := sc2.Format(); again != text {
			t.Errorf("Format not stable for %q:\n%q\n%q", src, text, again)
		}
	}
}

// TestParseDiagnostics pins the precise rejection of everything a run
// would otherwise silently ignore, with line numbers.
func TestParseDiagnostics(t *testing.T) {
	cases := []struct {
		src, want string
		// line is the line the message must name; 0 only where the text
		// names no scheme, so no directive can be blamed.
		line int
	}{
		{"scheme nosuch\n", `unknown scheme "nosuch"`, 1},
		{"param n=5\n", "no scheme selected", 0},
		{"scheme multitree\nbogus 3\n", `line 2: unknown directive "bogus"`, 2},
		{"scheme multitree\nparam n=x\n", `n="x" is not an integer`, 2},
		{"scheme multitree\nparam n=0\n", "n must be >= 1", 2},
		// The satellite cases: parameters the legacy CLI accepted and
		// silently ignored are now precise errors.
		{"scheme hypercube\nparam construction=structured\n", `hypercube does not accept parameter "construction"`, 2},
		{"scheme multitree\nparam tc=5\n", `multitree does not accept parameter "tc"`, 2},
		{"scheme chain\nparam d=3\n", `chain does not accept parameter "d"`, 2},
		{"scheme hypercube\nmode prerecorded\n", "always runs in live mode", 2},
		{"scheme cluster\nmode live\n", "manages its stream mode internally", 2},
		{"scheme gossip\ncheck\n", "not statically checkable", 2},
		{"scheme mdc\ncheck\n", "not statically checkable", 2},
		{"scheme randreg\ncheck\n", "not statically checkable", 2},
		{"scheme multitree\nparam n=5 n=6\n", `duplicate parameter "n"`, 2},
		{"scheme multitree\nscheme chain\n", "duplicate scheme directive", 2},
		{"scheme multitree\nmode nosuch\n", `unknown mode "nosuch"`, 2},
		{"scheme multitree\npackets 0\n", "not a positive integer", 2},
		// There is one engine: the directive that chose between two is gone,
		// whichever it names.
		{"scheme multitree\nengine runtime\n", `line 2: unknown directive "engine"`, 2},
		{"scheme multitree\nparam n=30\nengine slotsim\n", `line 3: unknown directive "engine"`, 3},
		{"scheme multitree\nparallel workers=0\n", "not a positive integer", 2},
		{"scheme multitree\nfaults seed=3\n", "missing file=", 2},
		{"scheme multitree\nfaults file=x.plan bogus=1\n", `unknown argument "bogus"`, 2},
		{"scheme multitree\nout\n", "out needs at least one of", 2},
		{"scheme gossip\nparam strategy=pull-eager\n", "is not one of", 2},
		{"scheme multitree\nparam swaps=10:1:2\n", `multitree does not accept parameter "swaps"`, 2},
		{"scheme multitree\nparam construction=dfs\n", "is not one of", 2},
		// Validate's rejections of a parameter or a directive name its line.
		{"scheme multitree\nparam n=abc\n", `n="abc" is not an integer`, 2},
		{"scheme multitree\nparam d=3\n\n# n is next\nparam n=abc\nmode live\n", `n="abc" is not an integer`, 5},
		{"scheme hypercube\nparam n=20\nmode prerecorded\npackets 4\n", "always runs in live mode", 3},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) accepted, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.src, err, c.want)
		}
		if at := fmt.Sprintf("line %d: ", c.line); c.line > 0 && !strings.Contains(err.Error(), at) ||
			c.line == 0 && strings.Contains(err.Error(), "line ") {
			t.Errorf("Parse(%q) = %v, want it to name line %d", c.src, err, c.line)
		}
	}
}

// TestValidateCLIShapes covers the validations that scenarios built as values
// rather than parsed from text rely on.
func TestValidateCLIShapes(t *testing.T) {
	sc := &Scenario{Scheme: "multitree", Workers: 4}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "workers is only meaningful with parallel") {
		t.Errorf("workers without parallel: %v", err)
	}
	sc = &Scenario{Scheme: "multitree", FaultSeed: 9}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "fault seed without a fault plan") {
		t.Errorf("fault seed without plan: %v", err)
	}
	sc = &Scenario{Scheme: "multitree", Parallel: true, Workers: maxWorkers + 1}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "workers must be <=") {
		t.Errorf("workers above cap: %v", err)
	}
	sc = &Scenario{Scheme: "multitree", Parallel: true, Workers: maxWorkers}
	if err := sc.Validate(); err != nil {
		t.Errorf("workers at cap rejected: %v", err)
	}
}

func TestLoadResolvesFaultsPath(t *testing.T) {
	dir := t.TempDir()
	plan := "seed 3\nloss from=any to=any rate=0.5 slots=0..10\n"
	if err := os.WriteFile(filepath.Join(dir, "x.plan"), []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	src := "scheme multitree\nparam n=10\nfaults file=x.plan\n"
	path := filepath.Join(dir, "run.scn")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "x.plan"); sc.FaultsFile != want {
		t.Fatalf("FaultsFile = %q, want %q", sc.FaultsFile, want)
	}
	run, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if run.Injector == nil || run.Plan.Seed != 3 {
		t.Fatalf("fault plan not wired: injector=%v plan=%+v", run.Injector, run.Plan)
	}
}
