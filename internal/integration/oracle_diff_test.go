package integration

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// sameOutcome compares what the engine computed with what the oracle did:
// the whole Result, and — when the engine run kept its cells — the arrival
// slot of every node × window packet. It returns "" or the first difference.
func sameOutcome(got *slotsim.Result, gotCells *slotsim.Arrivals, want *slotsim.Result, cells oracleCells) string {
	if got.N != want.N || got.Packets != want.Packets || got.SlotsUsed != want.SlotsUsed {
		return fmt.Sprintf("engine N=%d Packets=%d SlotsUsed=%d, oracle N=%d Packets=%d SlotsUsed=%d",
			got.N, got.Packets, got.SlotsUsed, want.N, want.Packets, want.SlotsUsed)
	}
	for id := 0; id <= want.N; id++ {
		if got.StartDelay[id] != want.StartDelay[id] || got.MaxBuffer[id] != want.MaxBuffer[id] || got.Missing[id] != want.Missing[id] {
			return fmt.Sprintf("node %d: engine start/buffer/missing %d/%d/%d, oracle %d/%d/%d", id,
				got.StartDelay[id], got.MaxBuffer[id], got.Missing[id],
				want.StartDelay[id], want.MaxBuffer[id], want.Missing[id])
		}
	}
	if !reflect.DeepEqual(got, want) {
		return "Results differ in shape"
	}
	if gotCells == nil {
		return ""
	}
	for id := core.NodeID(0); int(id) <= want.N; id++ {
		for j := core.Packet(0); j < want.Packets; j++ {
			at, ok := cells[id][j]
			if !ok {
				at = -1
			}
			if g := gotCells.At(id, j); g != at {
				return fmt.Sprintf("node %d packet %d: engine arrival slot %d, oracle %d", id, j, g, at)
			}
		}
	}
	return ""
}

// sameVerdict compares two rejections: both runs pass, or both break the
// same constraint — slot, kind and transmission — or both fail otherwise and
// the engine's message carries the oracle's (the node and packet an
// incomplete window is short of; the churn source's own error).
func sameVerdict(got, want error) string {
	var gv, wv *slotsim.Violation
	errors.As(got, &gv)
	errors.As(want, &wv)
	var same bool
	switch {
	case got == nil || want == nil:
		same = got == nil && want == nil
	case gv != nil || wv != nil:
		same = gv != nil && wv != nil && *gv == *wv
	default:
		same = strings.Contains(got.Error(), want.Error())
	}
	if same {
		return ""
	}
	return fmt.Sprintf("engine verdict %v, oracle verdict %v", got, want)
}

// engineAgainst executes one freshly built run on the engine — bare, or under
// an observer that does nothing, which makes it replay its whole horizon —
// keeping its cells when asked, and compares it with the oracle's outcome.
func engineAgainst(run *spec.Run, observed, keep bool, want *slotsim.Result, cells oracleCells, werr error) string {
	run.Opt.Arrivals = nil // live-churn and mdc runs ask by default
	if keep {
		run.Opt.Arrivals = new(slotsim.Arrivals)
	}
	var o obs.Observer
	if observed {
		o = obs.SlotFunc(func(*obs.SlotView) {})
	}
	got, gerr := run.Execute(o)
	if diff := sameVerdict(gerr, werr); diff != "" || werr != nil {
		return diff
	}
	return sameOutcome(got, run.Opt.Arrivals, want, cells)
}

// withDrop puts drop in front of a run's in-flight hook, if it has one: the
// hook never sees a transmission drop has lost.
func withDrop(in slotsim.Injector, drop slotsim.DropFunc) slotsim.Injector {
	if in == nil {
		return drop
	}
	return dropFirst{drop, in}
}

type dropFirst struct {
	drop slotsim.DropFunc
	next slotsim.Injector
}

func (d dropFirst) DropTx(tx core.Transmission, t core.Slot) bool {
	return d.drop(tx, t) || d.next.DropTx(tx, t)
}

func (d dropFirst) DelayTx(tx core.Transmission, t core.Slot) core.Slot {
	return d.next.DelayTx(tx, t)
}

// agree runs the oracle and the engine, bare and observed, each on its own
// fresh build — churn sources and gossip schedules are single-shot — and
// fails on any difference in Result, cells or verdict. It returns the
// oracle's verdict.
func agree(t testing.TB, build func() *spec.Run) error {
	t.Helper()
	ref := build()
	want, cells, werr := oracle(ref.Scheme, ref.Opt)
	for _, observed := range []bool{false, true} {
		if diff := engineAgainst(build(), observed, true, want, cells, werr); diff != "" {
			t.Errorf("observed=%v: %s", observed, diff)
		}
	}
	return werr
}

// buildRun resolves scenario text, with a fault plan in text form when there
// is one and under the given horizon when it is not 0, into a fresh Run.
func buildRun(scenario, planText string, slots core.Slot) (*spec.Run, error) {
	sc, err := spec.Parse(scenario)
	if err != nil {
		return nil, err
	}
	if slots > 0 {
		sc.Slots = int(slots)
	}
	var plan *faults.Plan
	if planText != "" {
		if plan, err = faults.ParsePlan(planText); err != nil {
			return nil, err
		}
	}
	return spec.BuildWithPlan(sc, plan)
}

// builder resolves a scenario afresh on every call; mutate adjusts it first.
func builder(t testing.TB, load func() (*spec.Scenario, error), mutate func(*spec.Scenario)) func() *spec.Run {
	return func() *spec.Run {
		t.Helper()
		sc, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(sc)
		}
		run, err := spec.Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
}

// TestOracleDifferential is the engine against the oracle over every pinned
// input the repository has: the scenario corpus, the fault-plan corpus (over
// the family `make chaos` replays it on), the inline list the metamorphic
// properties use, the integration matrix at its own horizons and at starved
// ones, live churn under link delay, a DropFunc, and cluster runs, whose
// backbone links take Tc ≥ 2 slots, one of them under a fault plan too.
func TestOracleDifferential(t *testing.T) {
	parsed := func(text string) func() (*spec.Scenario, error) {
		return func() (*spec.Scenario, error) { return spec.Parse(text) }
	}

	scns, err := filepath.Glob(filepath.Join("..", "spec", "testdata", "scenarios", "*.scn"))
	if err != nil || len(scns) < 11 {
		t.Fatalf("scenario corpus: %d files (%v)", len(scns), err)
	}
	for _, path := range scns {
		t.Run("scenario/"+strings.TrimSuffix(filepath.Base(path), ".scn"), func(t *testing.T) {
			agree(t, builder(t, func() (*spec.Scenario, error) { return spec.Load(path) }, nil))
		})
	}

	plans, err := filepath.Glob(filepath.Join("..", "faults", "testdata", "corpus", "*.plan"))
	if err != nil || len(plans) < 5 {
		t.Fatalf("fault-plan corpus: %d files (%v)", len(plans), err)
	}
	for _, path := range plans {
		t.Run("plan/"+strings.TrimSuffix(filepath.Base(path), ".plan"), func(t *testing.T) {
			plan, err := faults.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, builder(t, parsed("scheme multitree\nparam d=3 n=15\n"), func(sc *spec.Scenario) {
				sc.FaultsFile = path
				if len(plan.Churn) > 0 {
					sc.Churn = &faults.Churn{Kind: faults.ChurnPlan}
				}
			}))
		})
	}

	inline, err := os.ReadFile(filepath.Join("..", "spec", "testdata", "inline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range strings.Split(strings.TrimSpace(string(inline)), "\n\n") {
		t.Run("inline/"+strings.ReplaceAll(text, "\n", "; "), func(t *testing.T) {
			agree(t, builder(t, parsed(text), nil))
		})
	}

	for _, sc := range matrixScenarios() {
		load := parsed(sc.Format())
		t.Run("matrix/"+strings.ReplaceAll(strings.TrimSpace(sc.Format()), "\n", "; "), func(t *testing.T) {
			agree(t, builder(t, load, nil))
			// Too few slots for the window: both must refuse, naming the
			// same node and packet.
			if agree(t, builder(t, load, func(sc *spec.Scenario) { sc.Slots = 2 })) == nil {
				t.Error("the oracle accepted a starved horizon")
			}
		})
	}

	// Joins that take over an id while delayed packets are still in flight to
	// its previous occupant: the pinned corpora have churn and delay, but
	// never a reused id inside the delay.
	for _, c := range []struct{ churn, plan string }{
		{"churn kind=poisson rate=2 seed=1 max=30 slots=2..", "seed 1\ndelay from=any to=any extra=1 rate=1 slots=0..\n"},
		{"churn kind=poisson rate=2 seed=4 max=30 slots=2..", "seed 4\ndelay from=any to=any extra=3 rate=1 slots=0..\n"},
		{"churn kind=flash rate=3 seed=2 max=30 slots=2..30", "seed 2\ndelay from=any to=any extra=2 rate=0.5 slots=0..\nloss from=any to=any rate=0.05 slots=0..\n"},
		{"churn kind=wave rate=2 seed=3 max=30 policy=lazy slots=2..", "seed 3\ndelay from=any to=any extra=2 rate=1 slots=4..\n"},
	} {
		text := "scheme multitree\nparam d=2 n=12\nmode live\npackets 16\n" + c.churn + "\n"
		t.Run("churn-delay/"+c.churn, func(t *testing.T) {
			agree(t, func() *spec.Run {
				run, err := buildRun(text, c.plan, 0)
				if err != nil {
					t.Fatal(err)
				}
				return run
			})
		})
	}

	// A join that revives an id whose previous occupant already holds window
	// packets: the engine must forget them in its ledger and in the record the
	// run keeps, as the oracle forgets them. The same input is a seed of
	// FuzzEngineDifferential (testdata/fuzz, plan-revive-prerecorded).
	t.Run("churn-plan/revive", func(t *testing.T) {
		scenario, plan, _, keep := generate(reviveSeed)
		if !keep || !strings.Contains(scenario, "mode prerecorded\n") || !strings.Contains(scenario, "churn kind=plan\n") {
			t.Fatalf("the seed no longer draws a pre-recorded plan-churn run that keeps its record:\n%s", scenario)
		}
		build := func() *spec.Run {
			run, err := buildRun(scenario, plan, 0)
			if err != nil {
				t.Fatalf("%v\n%s%s", err, scenario, plan)
			}
			return run
		}
		agree(t, build)
		if !revivesHolder(t, build()) {
			t.Fatalf("no join took an id that held window packets:\n%s%s", scenario, plan)
		}
	})

	// A DropFunc, as the MDC experiment uses it: an interior node that
	// forwards nothing, and losses scattered over every link.
	for name, drop := range map[string]slotsim.DropFunc{
		"silent-node": func(tx core.Transmission, _ core.Slot) bool { return tx.From == 3 },
		"scattered":   func(tx core.Transmission, t core.Slot) bool { return (int(tx.To)+int(tx.Packet)+int(t))%7 == 0 },
	} {
		t.Run("drop/"+name, func(t *testing.T) {
			build := builder(t, parsed("scheme mdc\nparam d=3 n=40 rounds=4\n"), nil)
			agree(t, func() *spec.Run {
				run := build()
				run.Opt.Inject = withDrop(run.Opt.Inject, drop)
				return run
			})
		})
	}

	// The last case puts a loss and delay plan on top of the backbone's Tc.
	for _, c := range []struct{ text, plan string }{
		{"scheme cluster\nparam D=3 d=2 k=3 n=9 tc=2\n", ""},
		{"scheme cluster\nparam D=4 d=3 intra=hypercube k=6 n=7 tc=4\n", ""},
		{"scheme cluster\nparam D=3 d=2 k=3 n=9 tc=2\n", "seed 9\nloss from=any to=any rate=0.05 slots=0..\ndelay from=any to=any extra=2 rate=0.3 slots=0..\n"},
	} {
		t.Run("cluster/"+strings.ReplaceAll(strings.TrimSpace(c.text+c.plan), "\n", "; "), func(t *testing.T) {
			run := func() *spec.Run {
				run, err := buildRun(c.text, c.plan, 0)
				if err != nil {
					t.Fatal(err)
				}
				return run
			}
			if run().Opt.Inject == nil {
				t.Fatal("the cluster run has no link latency")
			}
			agree(t, run)
		})
	}
}

// reviveSeed is the fuzz input of the churn-plan/revive case.
var reviveSeed = []byte("\xd54\x0et\xdd\x13\x9d\xb4\xf0p\xb3\v\xa2\x9dmG\xa3\xea")

// joinLog is a churn source that notes the slot at which each id last joined.
type joinLog struct {
	slotsim.ChurnSource
	joined map[core.NodeID]core.Slot
}

func (j joinLog) Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error) {
	stats, err := j.ChurnSource.Step(t, ds)
	for _, st := range stats {
		if !st.Leave {
			j.joined[st.Node] = t
		}
	}
	return stats, err
}

// revivesHolder executes a live-churn run and reports whether some join took
// an id at which a window packet had arrived before the join.
func revivesHolder(t *testing.T, run *spec.Run) bool {
	t.Helper()
	joins := joinLog{run.Opt.Churn, map[core.NodeID]core.Slot{}}
	run.Opt.Churn = joins
	first := map[core.NodeID]core.Slot{}
	_, err := run.Execute(obs.SlotFunc(func(v *obs.SlotView) {
		for _, tx := range v.Arrivals {
			if _, seen := first[tx.To]; !seen && tx.Packet < run.Opt.Packets {
				first[tx.To] = v.T
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	for id, at := range joins.joined {
		if got, ok := first[id]; ok && got < at {
			return true
		}
	}
	return false
}

// tampered replays a scheme with one slot's transmissions edited. Embedding
// the interface hides any periodicity, so the engine interprets it.
type tampered struct {
	core.Scheme
	at   core.Slot
	edit func(txs []core.Transmission) []core.Transmission
}

func (s tampered) Transmissions(t core.Slot) []core.Transmission {
	txs := s.Scheme.Transmissions(t)
	if t == s.at {
		return s.edit(slices.Clone(txs))
	}
	return txs
}

// TestOracleVerdicts breaks a valid live multi-tree schedule in one slot, one
// constraint of the model at a time, and demands that engine and oracle name
// the same first violation: slot, kind and transmission.
func TestOracleVerdicts(t *testing.T) {
	sc := spec.MultiTreeScenario(26, 3, multitree.Greedy, core.Live)
	run, err := spec.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The window is far from complete at this slot: a bare run executes it too.
	const at = 7
	// relayed finds the first transmission a receiver sends.
	relayed := func(txs []core.Transmission) int {
		return slices.IndexFunc(txs, func(tx core.Transmission) bool { return tx.From != core.SourceID })
	}
	cases := []struct {
		kind string
		edit func(txs []core.Transmission) []core.Transmission
	}{
		{"node id out of range", func(txs []core.Transmission) []core.Transmission {
			txs[relayed(txs)].To = 99
			return txs
		}},
		{"self transmission", func(txs []core.Transmission) []core.Transmission {
			i := relayed(txs)
			txs[i].To = txs[i].From
			return txs
		}},
		{"send capacity exceeded", func(txs []core.Transmission) []core.Transmission {
			return append(txs, txs[relayed(txs)])
		}},
		{"sender does not hold packet", func(txs []core.Transmission) []core.Transmission {
			txs[0].Packet = at + 1 // the live source does not have it yet
			return txs
		}},
		{"receive capacity exceeded", func(txs []core.Transmission) []core.Transmission {
			txs[relayed(txs)].To = txs[0].To
			return txs
		}},
		{"duplicate packet", func(txs []core.Transmission) []core.Transmission {
			txs[0].Packet -= 3 // what the source sent this child a period ago
			return txs
		}},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			s := tampered{run.Scheme, at, c.edit}
			_, _, werr := oracle(s, run.Opt)
			var v *slotsim.Violation
			if !errors.As(werr, &v) || v.Kind != c.kind || v.Slot != at {
				t.Fatalf("oracle verdict %v, want %q at slot %d", werr, c.kind, at)
			}
			for _, observer := range []obs.Observer{nil, obs.SlotFunc(func(*obs.SlotView) {})} {
				opt := run.Opt
				opt.Observer = observer
				_, gerr := slotsim.Run(s, opt)
				if diff := sameVerdict(gerr, werr); diff != "" {
					t.Errorf("observed=%v: %s", observer != nil, diff)
				}
			}
		})
	}
}
