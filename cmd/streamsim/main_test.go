package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// flagCases gives one representative flag invocation per registered
// scheme family; TestFlagVsScenarioParity fails if a family has no case,
// so a newly registered scheme must be added here and is then covered
// automatically.
var flagCases = map[string][]string{
	"multitree":  {"-scheme", "multitree", "-n", "40", "-d", "3", "-construction", "structured", "-mode", "live"},
	"hypercube":  {"-scheme", "hypercube", "-n", "31", "-d", "1"},
	"chain":      {"-scheme", "chain", "-n", "25"},
	"singletree": {"-scheme", "singletree", "-n", "30", "-d", "2", "-mode", "prebuffered"},
	"cluster":    {"-scheme", "cluster", "-k", "4", "-D", "3", "-tc", "3", "-n", "10", "-d", "2"},
	"gossip":     {"-scheme", "gossip", "-n", "24", "-d", "3", "-gossip-degree", "4", "-seed", "9"},
	"mdc":        {"-scheme", "mdc", "-n", "20", "-d", "2", "-rounds", "4"},
	"randreg":    {"-scheme", "randreg", "-n", "24", "-degree", "3", "-randreg-mode", "pull", "-seed", "5"},
}

// translate parses args through the CLI flag set and translates them into
// a scenario.
func translate(t *testing.T, args []string) *spec.Scenario {
	t.Helper()
	c := newCLI(flag.NewFlagSet("streamsim", flag.ContinueOnError))
	if err := c.fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sc, err := c.scenario()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// capture runs one scenario and returns its stdout bytes.
func capture(t *testing.T, sc *spec.Scenario) []byte {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := runScenario(sc, &out, &errOut); err != nil {
		t.Fatalf("runScenario: %v (stderr: %s)", err, errOut.String())
	}
	return out.Bytes()
}

// fingerprint builds the scenario and runs it with a metrics observer,
// returning the event-stream fingerprint.
func fingerprint(t *testing.T, sc *spec.Scenario) string {
	t.Helper()
	run, err := spec.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	opt := run.Opt
	opt.Observer = met
	if _, err := slotsim.Run(run.Scheme, opt); err != nil {
		t.Fatal(err)
	}
	return met.Fingerprint()
}

// TestFlagVsScenarioParity pins the acceptance criterion: for every
// registered scheme, the flag path and the -scenario path produce the
// same Scenario value, byte-identical stdout, and identical obs
// event-stream fingerprints.
func TestFlagVsScenarioParity(t *testing.T) {
	for _, f := range spec.Families() {
		args, ok := flagCases[f.Name]
		if !ok {
			t.Errorf("family %q has no flag case; add one to cover the new scheme", f.Name)
			continue
		}
		f := f
		t.Run(f.Name, func(t *testing.T) {
			fromFlags := translate(t, args)

			path := filepath.Join(t.TempDir(), "run.scn")
			if err := os.WriteFile(path, []byte(fromFlags.Format()), 0o644); err != nil {
				t.Fatal(err)
			}
			fromFile, err := spec.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromFlags, fromFile) {
				t.Fatalf("flag and scenario paths disagree:\nflags: %+v\nfile:  %+v", fromFlags, fromFile)
			}

			outA := capture(t, fromFlags)
			outB := capture(t, fromFile)
			if !bytes.Equal(outA, outB) {
				t.Errorf("stdout differs:\n-- flags --\n%s-- scenario --\n%s", outA, outB)
			}
			if fpA, fpB := fingerprint(t, fromFlags), fingerprint(t, fromFile); fpA != fpB {
				t.Errorf("fingerprints differ: %s vs %s", fpA, fpB)
			}
		})
	}
}

// TestFlagTranslationOnlyExplicit checks that defaults never leak into
// the scenario: an unset flag must not become a parameter, so registry
// validation sees exactly what the user typed.
func TestFlagTranslationOnlyExplicit(t *testing.T) {
	sc := translate(t, []string{"-scheme", "hypercube"})
	if len(sc.Params) != 0 {
		t.Fatalf("unset flags leaked into params: %+v", sc.Params)
	}
	if sc.Mode != "" || sc.Packets != 0 {
		t.Fatalf("unset flags leaked into scenario: %+v", sc)
	}

	// The satellite regressions: these were silently ignored before.
	c := newCLI(flag.NewFlagSet("streamsim", flag.ContinueOnError))
	if err := c.fs.Parse([]string{"-scheme", "hypercube", "-construction", "structured"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.scenario(); err == nil {
		t.Error("-scheme hypercube -construction structured accepted")
	}
	c = newCLI(flag.NewFlagSet("streamsim", flag.ContinueOnError))
	if err := c.fs.Parse([]string{"-tc", "5"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.scenario(); err == nil {
		t.Error("-tc 5 without -scheme cluster accepted")
	}
}

// TestChurnFlagScenario: the churn flags translate into the same scenario
// the churn directive parses to, the two paths print identical reports, and
// the run report carries the live-churn SLO section.
func TestChurnFlagScenario(t *testing.T) {
	fromFlags := translate(t, []string{
		"-scheme", "multitree", "-n", "20", "-d", "3", "-packets", "18",
		"-churn", "poisson", "-churn-rate", "0.6", "-churn-seed", "31",
		"-churn-max", "8", "-churn-policy", "lazy", "-churn-slots", "5..",
	})
	want := &spec.Scenario{
		Scheme: "multitree", Params: map[string]string{"n": "20", "d": "3"}, Packets: 18,
		ChurnKind: "poisson", ChurnRate: 0.6, ChurnSeed: 31, ChurnMax: 8,
		ChurnPolicy: "lazy", ChurnBegin: 5,
	}
	if !reflect.DeepEqual(fromFlags, want) {
		t.Fatalf("flag translation: got %+v\nwant %+v", fromFlags, want)
	}

	path := filepath.Join(t.TempDir(), "run.scn")
	if err := os.WriteFile(path, []byte(fromFlags.Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := spec.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFlags, fromFile) {
		t.Fatalf("flag and scenario paths disagree:\nflags: %+v\nfile:  %+v", fromFlags, fromFile)
	}
	if !bytes.Equal(capture(t, fromFlags), capture(t, fromFile)) {
		t.Error("churn stdout differs between flag and scenario paths")
	}

	// -churn-policy eager is the canonical default: stored empty, like the
	// directive's policy=eager.
	sc := translate(t, []string{"-scheme", "multitree", "-churn", "wave",
		"-churn-rate", "1", "-churn-policy", "eager"})
	if sc.ChurnPolicy != "" {
		t.Fatalf("-churn-policy eager stored as %q, want empty", sc.ChurnPolicy)
	}

	// A malformed window is a flag error, with the shared parser's message.
	c := newCLI(flag.NewFlagSet("streamsim", flag.ContinueOnError))
	if err := c.fs.Parse([]string{"-scheme", "multitree", "-churn", "poisson",
		"-churn-rate", "1", "-churn-slots", "7"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.scenario(); err == nil {
		t.Error("-churn-slots 7 accepted; want lo..hi diagnostic")
	}

	// The run report written by -report-out carries the churn section.
	repPath := filepath.Join(t.TempDir(), "report.json")
	withReport := *want
	withReport.ReportOut = repPath
	capture(t, &withReport)
	f, err := os.Open(repPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := obs.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Churn == nil {
		t.Fatal("run report has no churn section")
	}
	if rep.Churn.Kind != "poisson" || rep.Churn.Ops == 0 || rep.Churn.NodesMeasured == 0 {
		t.Fatalf("churn section not populated: %+v", rep.Churn)
	}
	if rep.Churn.MaxSwaps > rep.Churn.SwapBound {
		t.Fatalf("report records a bound breach that should have aborted: %+v", rep.Churn)
	}
}

// TestPlanChurnNeedsDirective: a fault plan with join/leave events runs only
// with -churn plan — without it the run is refused with the plan and the
// directive named, never silently static — and there is no flag that places
// position swaps by hand.
func TestPlanChurnNeedsDirective(t *testing.T) {
	plan := filepath.Join("..", "..", "internal", "faults", "testdata", "corpus", "chaos.plan")
	args := []string{"-scheme", "multitree", "-faults", plan}
	var out, errOut bytes.Buffer
	err := runScenario(translate(t, args), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), plan) || !strings.Contains(err.Error(), "-churn plan") {
		t.Fatalf("plan churn without -churn plan: got %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed a report:\n%s", out.String())
	}

	errOut.Reset()
	if err := runScenario(translate(t, append(args, "-churn", "plan")), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "live churn: 3 ops (2 joins, 1 leaves)") {
		t.Errorf("stderr lacks the live-churn line for the plan's three events:\n%s", errOut.String())
	}

	c := newCLI(flag.NewFlagSet("streamsim", flag.ContinueOnError))
	c.fs.SetOutput(&errOut)
	if err := c.fs.Parse([]string{"-swaps", "12:5:9"}); err == nil {
		t.Error("-swaps still parses")
	}
}

// TestEngineFlagIsGone: there is one engine, so -engine is the flag
// package's ordinary unknown-flag error, with no compatibility shim.
func TestEngineFlagIsGone(t *testing.T) {
	var errOut bytes.Buffer
	c := newCLI(flag.NewFlagSet("streamsim", flag.ContinueOnError))
	c.fs.SetOutput(&errOut)
	err := c.fs.Parse([]string{"-scheme", "multitree", "-engine", "runtime"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -engine") {
		t.Errorf("-engine runtime: got %v, want the unknown-flag error", err)
	}
}

// TestListSchemes keeps the registry listing rendering every family.
func TestListSchemes(t *testing.T) {
	var buf bytes.Buffer
	printSchemes(&buf)
	for _, f := range spec.Families() {
		if !bytes.Contains(buf.Bytes(), []byte(f.Name)) {
			t.Errorf("-list-schemes output missing %q", f.Name)
		}
	}
}

// TestParallelDirectiveIsAnnounced: a scenario carrying the `parallel`
// directive is not a silent no-op — stdout is byte-identical to the plain
// scenario's, and stderr says the directive was accepted and ignored.
func TestParallelDirectiveIsAnnounced(t *testing.T) {
	const text = "scheme multitree\nparam d=3 n=40\n"
	run := func(src string) (stdout, stderr string) {
		sc, err := spec.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		if err := runScenario(sc, &out, &errOut); err != nil {
			t.Fatalf("runScenario: %v (stderr: %s)", err, errOut.String())
		}
		return out.String(), errOut.String()
	}
	plainOut, plainErr := run(text)
	parOut, parErr := run(text + "parallel workers=2\n")
	if parOut != plainOut {
		t.Errorf("stdout differs under the parallel directive:\n%s\nvs\n%s", parOut, plainOut)
	}
	if strings.Contains(plainErr, "accepted and ignored") {
		t.Errorf("plain scenario announced an ignored directive: %q", plainErr)
	}
	if !strings.Contains(parErr, "parallel: accepted and ignored") {
		t.Errorf("stderr %q does not announce the ignored parallel directive", parErr)
	}
}

// TestFailedRunFlushesTrace: a run the engine aborts must still leave a
// whole trace behind — every buffered event flushed, the file ending on a
// line boundary, the last event closing the last executed slot — while the
// run's error stays the one reported.
func TestFailedRunFlushesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.jsonl")
	sc, err := spec.Parse("scheme multitree\nparam d=3 n=2000\npackets 24\nslots 12\nout trace=" + path + "\n")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := runScenario(sc, &out, &errOut); err == nil || !strings.Contains(err.Error(), "never received packet") {
		t.Fatalf("runScenario = %v, want the engine's incomplete-delivery error", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(raw, []byte("\n")) {
		t.Errorf("trace ends mid-line: %q", raw[max(0, len(raw)-60):])
	}
	evs, err := obs.ReadEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("trace of a failed run does not parse: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace of a failed run is empty")
	}
	// The horizon runs out before delivery completes, so the engine closes
	// slot 11 and then fails: the trace must reach that closing event.
	if last, want := evs[len(evs)-1], (obs.Event{Kind: obs.KindSlotEnd, Slot: 11}); last != want {
		t.Errorf("last event %v, want %v (the end of the last of 12 executed slots)", last, want)
	}
}
