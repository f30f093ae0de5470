package slotsim_test

import (
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// scriptChurn is a deterministic ChurnSource for engine tests: a fixed map of
// slot → ops, applied verbatim. Decisions depend only on the slot, so every
// replay sees the identical membership history.
type scriptChurn struct {
	max int
	ops map[core.Slot][]core.TopologyOp
}

func (s *scriptChurn) MaxNodes() int { return s.max }
func (s *scriptChurn) Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error) {
	return applyAll(t, ds, s.ops[t]...)
}

// applyAll applies ops in order through ds.Apply and returns their stats,
// stopping at the first failing op.
func applyAll(t core.Slot, ds core.DynamicScheme, ops ...core.TopologyOp) ([]core.ChurnStats, error) {
	var out []core.ChurnStats
	for _, op := range ops {
		st, err := ds.Apply(t, op)
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// liveCase builds a fresh churn-capable run: the live multi-tree scheme, a
// scripted mid-run join/leave sequence, and options sized so the horizon
// spans warmup, a burst of short epochs, a quiet stretch, and one late op
// followed by a long epoch.
func liveCase(t *testing.T, n, d int, mode core.StreamMode) (*multitree.LiveScheme, slotsim.Options) {
	t.Helper()
	ls, err := multitree.NewLiveScheme(n, d, false, mode)
	if err != nil {
		t.Fatal(err)
	}
	script := &scriptChurn{
		max: ls.NumReceivers() + 4*d,
		ops: map[core.Slot][]core.TopologyOp{
			3:  {{Name: "j1"}},
			7:  {{Leave: true, Name: "node-2"}, {Name: "j2"}},
			12: {{Name: "j3"}, {Name: "j4"}},
			19: {{Leave: true, Name: "j1"}, {Leave: true, Name: "node-5"}},
			30: {{Name: "j5"}},
		},
	}
	win := core.Packet(6 * d)
	opt := slotsim.Options{
		Slots:           core.Slot(int(win)) + ls.SteadyState() + core.Slot(14*d+2),
		Packets:         win,
		Mode:            mode,
		Churn:           script,
		AllowIncomplete: true,
		SkipUnavailable: true,
	}
	return ls, opt
}

// churnRun executes one fully observed churned run on a fresh scheme and
// returns the membership the run ended with beside its outputs.
func churnRun(t *testing.T, n, d int, mode core.StreamMode) (outcome, *obs.Recorder, *obs.Metrics, []core.MemberInfo) {
	t.Helper()
	ls, opt := liveCase(t, n, d, mode)
	rec, met := &obs.Recorder{}, obs.NewMetrics()
	opt.Observer = obs.Combine(rec, met)
	out, err := runKeeping(slotsim.NewRunner(), ls, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out, rec, met, ls.Members()
}

// TestChurnParity is the determinism acceptance case for the epoch-aware
// schedule source: a scripted mid-run join/leave sequence, replayed on a
// fresh scheme and Runner, must produce bit-identical Results and arrival
// cells, observer event streams, and metric fingerprints.
func TestChurnParity(t *testing.T) {
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live} {
		refRes, refRec, refMet, refMembers := churnRun(t, 10, 2, mode)
		if initial, _ := liveCase(t, 10, 2, mode); reflect.DeepEqual(refMembers, initial.Members()) {
			t.Fatalf("%s: scripted churn left the membership as it was; the parity case is vacuous", mode)
		}
		res, rec, met, members := churnRun(t, 10, 2, mode)
		if !reflect.DeepEqual(members, refMembers) {
			t.Errorf("%s: final members %v, first replay %v", mode, members, refMembers)
		}
		if !reflect.DeepEqual(refRes, res) {
			t.Errorf("%s: Result or arrival cells differ from the first replay", mode)
		}
		if got, want := met.Fingerprint(), refMet.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %s, first replay %s", mode, got, want)
		}
		assertSameEvents(t, mode.String(), "first replay", refRec, "second replay", rec)
	}
}

// idleChurn is a ChurnSource that never emits an op and declares no id-space
// growth, so the engine's arrays are not padded.
type idleChurn struct{}

func (idleChurn) MaxNodes() int { return 0 }
func (idleChurn) Step(core.Slot, core.DynamicScheme) ([]core.ChurnStats, error) {
	return nil, nil
}

// TestIdleChurnSourceIsIdentity states the claim the single slot loop rests
// on — a static run is the zero-epoch case of a churned one: the same live
// scheme and options under a ChurnSource that never acts must equal the run
// with Churn == nil, in Result, event stream and fingerprint.
func TestIdleChurnSourceIsIdentity(t *testing.T) {
	for _, mode := range []core.StreamMode{core.PreRecorded, core.Live} {
		run := func(src slotsim.ChurnSource) (outcome, *obs.Recorder, *obs.Metrics) {
			ls, opt := liveCase(t, 10, 2, mode)
			opt.Churn = src
			rec, met := &obs.Recorder{}, obs.NewMetrics()
			opt.Observer = obs.Combine(rec, met)
			initial := ls.Members()
			res, err := runKeeping(slotsim.NewRunner(), ls, opt)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			if got := ls.Members(); !reflect.DeepEqual(got, initial) {
				t.Fatalf("%s: membership moved to %v without any op", mode, got)
			}
			return res, rec, met
		}
		refRes, refRec, refMet := run(nil)
		res, rec, met := run(idleChurn{})
		if !reflect.DeepEqual(refRes, res) {
			t.Errorf("%s: Result or arrival cells differ from the Churn == nil run", mode)
		}
		if got, want := met.Fingerprint(), refMet.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %s, Churn == nil %s", mode, got, want)
		}
		assertSameEvents(t, mode.String(), "Churn == nil", refRec, "idle source", rec)
	}
}

// TestChurnReassignedIDState: a leave followed by a join that revives the
// departed id must not let the joiner inherit the leaver's arrivals. The
// joiner's arrival row before its join slot stays empty.
func TestChurnReassignedIDState(t *testing.T) {
	ls, err := multitree.NewLiveScheme(10, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	leaveSlot, joinSlot := core.Slot(9), core.Slot(10)
	script := &scriptChurn{
		max: ls.NumReceivers() + 4,
		ops: map[core.Slot][]core.TopologyOp{
			leaveSlot: {{Leave: true, Name: "node-6"}},
			joinSlot:  {{Name: "reborn"}},
		},
	}
	win := core.Packet(16)
	opt := slotsim.Options{
		Slots:           core.Slot(int(win)) + ls.SteadyState() + 12,
		Packets:         win,
		Mode:            core.PreRecorded,
		Churn:           script,
		Arrivals:        new(slotsim.Arrivals),
		AllowIncomplete: true,
		SkipUnavailable: true,
	}
	if _, err := slotsim.Run(ls, opt); err != nil {
		t.Fatal(err)
	}
	var reborn core.NodeID
	for _, m := range ls.Members() {
		if m.Name == "reborn" {
			reborn = m.Node
		}
	}
	if reborn == 0 {
		t.Fatal("joiner not in final membership")
	}
	for p, a := range opt.Arrivals.Row(reborn) {
		if a >= 0 && a < joinSlot {
			t.Errorf("reborn id %d 'received' packet %d at slot %d, before its join at %d (inherited state)",
				reborn, p, a, joinSlot)
		}
	}
}

// TestChurnOptionErrors covers the gate conditions of the churn path.
func TestChurnOptionErrors(t *testing.T) {
	script := &scriptChurn{max: 4, ops: nil}

	// A static scheme cannot run under churn.
	m, err := multitree.New(10, 2, multitree.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	static := multitree.NewScheme(m, core.PreRecorded)
	opt := slotsim.Options{
		Slots: 10, Packets: 2, Mode: core.PreRecorded,
		Churn: script, AllowIncomplete: true, SkipUnavailable: true,
	}
	if _, err := slotsim.Run(static, opt); err == nil || !strings.Contains(err.Error(), "DynamicScheme") {
		t.Fatalf("static scheme under churn: got %v, want DynamicScheme error", err)
	}

	// Churn without degraded-operation flags is rejected.
	ls, err := multitree.NewLiveScheme(10, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	strict := opt
	strict.AllowIncomplete = false
	if _, err := slotsim.Run(ls, strict); err == nil || !strings.Contains(err.Error(), "AllowIncomplete") {
		t.Fatalf("missing AllowIncomplete: got %v", err)
	}
	strict = opt
	strict.SkipUnavailable = false
	if _, err := slotsim.Run(ls, strict); err == nil || !strings.Contains(err.Error(), "SkipUnavailable") {
		t.Fatalf("missing SkipUnavailable: got %v", err)
	}
}

// TestChurnCeilingExceeded: growth past the ChurnSource's declared MaxNodes
// ceiling aborts the run with a diagnostic instead of silently remapping the
// engine's pre-sized state. The ceiling follows the source's own count of
// its joins, so the message names an undercounting source as the cause, not
// a knob to raise.
func TestChurnCeilingExceeded(t *testing.T) {
	ls, err := multitree.NewLiveScheme(10, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	// Enough joins to exhaust the dummy pool and force a level grow, with a
	// ceiling that only covers the initial id space.
	joins := ls.NumReceivers() - len(ls.Members()) + 1
	var ops []core.TopologyOp
	for j := 0; j < joins; j++ {
		ops = append(ops, core.TopologyOp{Name: "grow-" + string(rune('a'+j))})
	}
	script := &scriptChurn{max: ls.NumReceivers(), ops: map[core.Slot][]core.TopologyOp{2: ops}}
	opt := slotsim.Options{
		Slots: 20, Packets: 4, Mode: core.PreRecorded,
		Churn: script, AllowIncomplete: true, SkipUnavailable: true,
	}
	const want = "slotsim: slot 2: churn grew the id space to 12 nodes, past the ceiling of 10 its ChurnSource declared: the source undercounts its joins over the run's horizon"
	if _, err := slotsim.Run(ls, opt); err == nil || err.Error() != want {
		t.Fatalf("growth past ceiling: got %v, want %s", err, want)
	}
}

// TestChurnSourceErrorAborts: an error from the ChurnSource (here: a leave
// of an unknown member) aborts the run with the slot attached.
func TestChurnSourceErrorAborts(t *testing.T) {
	ls, err := multitree.NewLiveScheme(10, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	script := &scriptChurn{
		max: ls.NumReceivers(),
		ops: map[core.Slot][]core.TopologyOp{5: {{Leave: true, Name: "nobody"}}},
	}
	opt := slotsim.Options{
		Slots: 20, Packets: 4, Mode: core.PreRecorded,
		Churn: script, AllowIncomplete: true, SkipUnavailable: true,
	}
	_, err = slotsim.Run(ls, opt)
	if err == nil || !strings.Contains(err.Error(), "slot 5") || !strings.Contains(err.Error(), "churn") {
		t.Fatalf("churn source error: got %v, want slot-5 churn error", err)
	}
}

// TestChurnSLO sanity-checks PlaybackSLO on a churned run: every measured
// node, a clean pre-churn run has no hiccups, and a run with a mid-stream
// join attributes gaps (if any) to repair — never to the unchurned prefix.
func TestChurnSLO(t *testing.T) {
	ls, err := multitree.NewLiveScheme(10, 2, false, core.PreRecorded)
	if err != nil {
		t.Fatal(err)
	}
	script := &scriptChurn{max: ls.NumReceivers() + 4, ops: nil} // no ops: clean run
	win := core.Packet(12)
	opt := slotsim.Options{
		Slots:           core.Slot(int(win)) + ls.SteadyState() + 8,
		Packets:         win,
		Mode:            core.PreRecorded,
		Churn:           script,
		Arrivals:        new(slotsim.Arrivals),
		AllowIncomplete: true,
		SkipUnavailable: true,
	}
	res, err := slotsim.Run(ls, opt)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]slotsim.Membership, 0, 10)
	for _, m := range ls.Members() {
		members = append(members, slotsim.Membership{Node: m.Node, Name: m.Name, Join: 0, Leave: -1})
	}
	slo := slotsim.PlaybackSLO(res, opt.Arrivals, members, 3, -1)
	if slo.Nodes != 10 {
		t.Fatalf("measured %d nodes, want 10", slo.Nodes)
	}
	if slo.Hiccups != 0 || slo.Gaps != 0 || slo.MaxStall != 0 || slo.RebufferRatio != 0 {
		t.Fatalf("clean run reported interruptions: %+v", slo)
	}
	if slo.Expected != 10*int(win) {
		t.Fatalf("expected %d window packets, want %d", slo.Expected, 10*int(win))
	}
	// A departed member owes no playback and is excluded.
	members[0].Leave = 5
	if got := slotsim.PlaybackSLO(res, opt.Arrivals, members, 3, -1).Nodes; got != 9 {
		t.Fatalf("measured %d nodes with one departed, want 9", got)
	}
}
