package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"streamcast/internal/obs"
	"streamcast/internal/spec"
)

// removedFlags are the options streamsim once had that restated a scenario
// directive or parameter (plus -engine and -swaps, deleted with their
// mechanisms). Each is now the flag package's own unknown-flag error.
var removedFlags = []string{
	"scheme", "n", "d", "construction", "mode", "packets", "slots",
	"k", "D", "tc", "intra", "gossip-degree", "strategy", "degree",
	"randreg-mode", "seed", "rounds", "check",
	"metrics-out", "trace-out", "report-out", "faults", "fault-seed",
	"churn", "churn-rate", "churn-seed", "churn-max", "churn-policy", "churn-slots",
	"engine", "swaps",
}

// invoke runs the command in-process and returns its exit status and output.
func invoke(args []string, stdin string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCLIOverScenarioCorpus runs every spec corpus scenario from its own
// directory twice — as `-scenario FILE` and as `-scenario -` with the same
// text on stdin — and demands identical stdout and stderr, so a new family
// is covered the day its corpus scenario lands. It also pins the usage
// errors: no scenario, and every removed flag, exit 2.
func TestCLIOverScenarioCorpus(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "spec", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })

	files, err := filepath.Glob("*.scn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus scenarios in %s (%v)", dir, err)
	}
	for _, name := range files {
		t.Run(strings.TrimSuffix(name, ".scn"), func(t *testing.T) {
			text, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fileCode, fileOut, fileErr := invoke([]string{"-scenario", name}, "")
			if fileCode != 0 {
				t.Fatalf("-scenario FILE exited %d: %s", fileCode, fileErr)
			}
			stdinCode, stdinOut, stdinErr := invoke([]string{"-scenario", "-"}, string(text))
			if stdinCode != 0 || stdinOut != fileOut || stdinErr != fileErr {
				t.Errorf("-scenario - differs from -scenario FILE (exit %d)\n-- file stdout --\n%s-- stdin stdout --\n%s-- file stderr --\n%s-- stdin stderr --\n%s",
					stdinCode, fileOut, stdinOut, fileErr, stdinErr)
			}
		})
	}

	if code, _, stderr := invoke(nil, ""); code != 2 || !strings.Contains(stderr, "usage: streamsim") {
		t.Errorf("no scenario: exit %d, stderr %q; want 2 and the usage", code, stderr)
	}
	for _, name := range removedFlags {
		code, stdout, stderr := invoke([]string{"-" + name, "1", "-scenario", files[0]}, "")
		if want := "flag provided but not defined: -" + name; code != 2 || !strings.Contains(stderr, want) || stdout != "" {
			t.Errorf("-%s: exit %d, stderr %q; want 2 and %q", name, code, stderr, want)
		}
	}
}

// TestPlanChurnNeedsDirective: a fault plan with join/leave events runs only
// under `churn kind=plan` — without it the run is refused with the plan and
// the directive named, never silently static.
func TestPlanChurnNeedsDirective(t *testing.T) {
	plan := filepath.Join("..", "..", "internal", "faults", "testdata", "corpus", "chaos.plan")
	text := "scheme multitree\nfaults file=" + plan + "\n"
	code, stdout, stderr := invoke([]string{"-scenario", "-"}, text)
	if code != 1 || !strings.Contains(stderr, plan) || !strings.Contains(stderr, "`churn kind=plan`") {
		t.Fatalf("plan churn without the directive: exit %d, stderr %q", code, stderr)
	}
	if stdout != "" {
		t.Errorf("a refused run printed a report:\n%s", stdout)
	}

	code, _, stderr = invoke([]string{"-scenario", "-"}, text+"churn kind=plan\n")
	if code != 0 {
		t.Fatalf("plan churn under the directive: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "live churn: 3 ops (2 joins, 1 leaves)") {
		t.Errorf("stderr lacks the live-churn line for the plan's three events:\n%s", stderr)
	}
}

// TestChurnReportSection: the run report of a live-churn run carries a
// populated churn section within the d²+d swap bound.
func TestChurnReportSection(t *testing.T) {
	repPath := filepath.Join(t.TempDir(), "report.json")
	text := "scheme multitree\nparam n=20 d=3\npackets 18\n" +
		"churn kind=poisson rate=0.6 seed=31 max=8 policy=lazy slots=5..\n" +
		"out report=" + repPath + "\n"
	if code, _, stderr := invoke([]string{"-scenario", "-"}, text); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
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

// TestChurnReportMatchesText: on the churn-faulted shape (multitree d=3
// n=10000 under poisson live churn and 2 % loss) the JSON report describes
// the ids the text report counts — the ids the run allocated, not the
// engine's join headroom: receivers is the text's count, missing_packets the
// `faulted:` total, and every per_node array has receivers+1 entries.
func TestChurnReportMatchesText(t *testing.T) {
	if testing.Short() {
		t.Skip("a 10 000-node churned run")
	}
	dir := t.TempDir()
	plan := filepath.Join(dir, "loss.plan")
	if err := os.WriteFile(plan, []byte("seed 7\nloss from=any to=any rate=0.02 slots=0..\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	repPath := filepath.Join(dir, "report.json")
	text := "scheme multitree\nparam d=3 n=10000\npackets 200\nfaults file=" + plan + "\n" +
		"churn kind=poisson rate=1 seed=11 policy=lazy slots=20..\nout report=" + repPath + "\n"
	code, stdout, stderr := invoke([]string{"-scenario", "-"}, text)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var receivers, faulted int
	for _, line := range strings.Split(stdout, "\n") {
		if v, ok := strings.CutPrefix(line, "receivers:"); ok {
			receivers, _ = strconv.Atoi(strings.TrimSpace(v))
		}
		if _, v, ok := strings.Cut(line, "nodes missing packets ("); ok && strings.HasPrefix(line, "faulted:") {
			faulted, _ = strconv.Atoi(strings.TrimSuffix(v, " packets total)"))
		}
	}
	if receivers == 0 || faulted == 0 {
		t.Fatalf("text report lacks the receivers or faulted line:\n%s", stdout)
	}
	f, err := os.Open(repPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := obs.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Receivers != receivers {
		t.Errorf("report receivers %d, text %d", rep.Receivers, receivers)
	}
	if rep.Aggregates.MissingPackets != faulted {
		t.Errorf("report missing_packets %d, text faulted total %d", rep.Aggregates.MissingPackets, faulted)
	}
	for name, a := range map[string][]int{"start_delay": rep.PerNode.StartDelay, "max_buffer": rep.PerNode.MaxBuffer, "missing": rep.PerNode.Missing} {
		if len(a) != rep.Receivers+1 {
			t.Errorf("per_node.%s has %d entries, want receivers+1 = %d", name, len(a), rep.Receivers+1)
		}
	}
}

// TestStarvedRunSaysSo: a run without faults or live churn that misses
// window packets says how many on a `missing:` line (seed 2's latin plan
// leaves two of 40 nodes a residue class short), the report's
// missing_packets total; under a fault plan the `faulted:` line reports them
// instead, and a complete run prints neither.
func TestStarvedRunSaysSo(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "loss.plan")
	if err := os.WriteFile(plan, []byte("seed 7\nloss from=any to=any rate=0.02 slots=0..\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	repPath := filepath.Join(dir, "report.json")
	const starved = "scheme randreg\nparam n=40 degree=3 mode=latin seed=2\npackets 30\n"
	for _, c := range []struct{ text, want, not string }{
		{starved + "out report=" + repPath + "\n", "missing:       2 of 40 nodes (20 packets)\n", "faulted:"},
		{starved + "faults file=" + plan + "\n", "faulted:", "missing:"},
		{"scheme randreg\nparam n=40 degree=3 mode=latin seed=1\npackets 30\n", "slots used:", "missing:"},
	} {
		code, stdout, stderr := invoke([]string{"-scenario", "-"}, c.text)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		if !strings.Contains(stdout, c.want) || strings.Contains(stdout, c.not) {
			t.Errorf("%q: want %q and no %q in\n%s", c.text, c.want, c.not, stdout)
		}
	}
	f, err := os.Open(repPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := obs.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregates.MissingPackets != 20 {
		t.Errorf("report missing_packets %d, text 20", rep.Aggregates.MissingPackets)
	}
}

// TestListSchemes: the registry listing renders every family and spells each
// parameter as the `param` directive a scenario writes.
func TestListSchemes(t *testing.T) {
	code, stdout, _ := invoke([]string{"-list-schemes"}, "")
	if code != 0 {
		t.Fatalf("-list-schemes exited %d", code)
	}
	for _, f := range spec.Families() {
		if !strings.Contains(stdout, f.Name) {
			t.Errorf("-list-schemes output missing %q", f.Name)
		}
		for _, p := range f.Params {
			if want := "param " + p.Name + "=" + p.Def + ": "; !strings.Contains(stdout, want) {
				t.Errorf("-list-schemes output missing %q for %s", want, f.Name)
			}
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

// TestSinkWriteFailureExits1: an output that cannot be written is a failed
// run. Each sink writes to /dev/full, whose every write fails with ENOSPC; a
// dropped write, flush or close error would exit 0 with the file truncated.
func TestSinkWriteFailureExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, sink := range []string{"report", "metrics", "trace"} {
		text := "scheme multitree\nparam n=40 d=3\nout " + sink + "=/dev/full\n"
		code, _, stderr := invoke([]string{"-scenario", "-"}, text)
		if code != 1 || !strings.Contains(stderr, "/dev/full") {
			t.Errorf("out %s=/dev/full: exit %d, stderr %q; want 1 and the path's write error", sink, code, stderr)
		}
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

// TestTraceToStdoutPrecedesReport: with `out trace=-` stdout is the whole
// JSONL trace, through the end of the horizon's last slot, followed by
// exactly the text report a run without outputs prints. The trace runs
// past a megabyte, several of the writer's buffers, so a report written
// before the trace is closed lands inside it.
func TestTraceToStdoutPrecedesReport(t *testing.T) {
	text := "scheme multitree\nparam d=3 n=300\npackets 24\n"
	code, bare, stderr := invoke([]string{"-scenario", "-"}, text)
	if code != 0 {
		t.Fatalf("bare run: exit %d, stderr %q", code, stderr)
	}
	code, out, stderr := invoke([]string{"-scenario", "-"}, text+"out trace=-\n")
	if code != 0 {
		t.Fatalf("traced run: exit %d, stderr %q", code, stderr)
	}
	trace, report, ok := strings.Cut(out, "\nscheme:")
	if !ok {
		t.Fatal("no text report on stdout")
	}
	if report = "scheme:" + report; report != bare {
		t.Errorf("stdout after the trace:\n%s\nwant the bare run's report:\n%s", report, bare)
	}
	evs, err := obs.ReadEvents(strings.NewReader(trace))
	if err != nil {
		t.Fatalf("trace part of stdout does not parse: %v", err)
	}
	sc, err := spec.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	run, err := spec.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if last, want := evs[len(evs)-1], (obs.Event{Kind: obs.KindSlotEnd, Slot: run.Opt.Slots - 1}); last != want {
		t.Errorf("last trace event %v, want %v", last, want)
	}
}

// TestPprofWritesCPUProfile: -pprof FILE leaves a gzip-compressed CPU
// profile at FILE and changes nothing on stdout; a FILE that cannot be
// created fails the command before the run prints anything.
func TestPprofWritesCPUProfile(t *testing.T) {
	text := "scheme multitree\nparam n=40 d=3\n"
	dir := t.TempDir()

	bad := filepath.Join(dir, "missing", "cpu.out")
	code, stdout, stderr := invoke([]string{"-scenario", "-", "-pprof", bad}, text)
	if code != 1 || !strings.Contains(stderr, "streamsim: pprof:") || stdout != "" {
		t.Errorf("-pprof %s: exit %d, stdout %q, stderr %q; want 1, no report and a pprof error", bad, code, stdout, stderr)
	}

	code, bare, stderr := invoke([]string{"-scenario", "-"}, text)
	if code != 0 {
		t.Fatalf("bare run: exit %d, stderr %q", code, stderr)
	}
	path := filepath.Join(dir, "cpu.out")
	code, stdout, stderr = invoke([]string{"-scenario", "-", "-pprof", path}, text)
	if code == 1 && strings.Contains(stderr, "already in use") {
		t.Skipf("the test binary is already profiling its CPU (go test -cpuprofile): %s", stderr)
	}
	if code != 0 || !strings.Contains(stderr, path) {
		t.Fatalf("-pprof %s: exit %d, stderr %q; want 0 and the file named", path, code, stderr)
	}
	if stdout != bare {
		t.Errorf("stdout with -pprof:\n%s\nwant the bare run's:\n%s", stdout, bare)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Errorf("profile of %d bytes does not start with the gzip magic 1f 8b", len(raw))
	}
}

// TestReportCallersKeepTheRecord: streamsim hands slotsim.BuildReport the
// options spec.Build returned, which keep the arrival record for a scenario
// with `out report=`; a nil record would panic there. Every family's default
// scenario writes a readable report with its buffer series.
func TestReportCallersKeepTheRecord(t *testing.T) {
	for _, f := range spec.Families() {
		repPath := filepath.Join(t.TempDir(), f.Name+".json")
		text := "scheme " + f.Name + "\nout report=" + repPath + "\n"
		if code, _, stderr := invoke([]string{"-scenario", "-"}, text); code != 0 {
			t.Fatalf("%s: exit %d: %s", f.Name, code, stderr)
		}
		data, err := os.ReadFile(repPath)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := obs.ReadReport(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if len(rep.Series.BufferMax) == 0 {
			t.Errorf("%s: the report has no buffer series", f.Name)
		}
	}
}
