package integration

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// differential runs the two independent judges of a scheme — the static
// verifier and the slot engine — over the same window and requires a
// unanimous verdict: both accept or both reject. The static verifier and
// the engine share no simulation code beyond the Transmissions schedule
// itself, so agreement here is a genuine cross-check, not an echo.
func differential(t *testing.T, tag string, s core.Scheme, copt check.Options, sopt slotsim.Options) {
	t.Helper()
	rep, cerr := check.Static(s, copt)
	staticOK := cerr == nil && rep.OK()

	// A bare run ends when its window is complete; the verifier audits its
	// whole horizon. The idle observer makes the engine replay every slot,
	// so the two verdicts are about the same slots.
	sopt.Observer = obs.Combine(sopt.Observer, obs.Funcs{})
	_, err := slotsim.Run(s, sopt)
	if engineOK := err == nil; staticOK != engineOK {
		t.Fatalf("%s: static verifier says ok=%v (err=%v, report=%v) but the engine says ok=%v (%v)",
			tag, staticOK, cerr, rep.Err(), engineOK, err)
	}
}

// TestDifferentialMultitree sweeps seeded random multi-tree configurations
// through the harness, each both at the verifier-derived horizon (accept)
// and at a starved horizon (reject).
func TestDifferentialMultitree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 25; i++ {
		n := rng.Intn(120) + 1
		d := rng.Intn(5) + 2
		c := multitree.Structured
		if rng.Intn(2) == 1 {
			c = multitree.Greedy
		}
		modes := []core.StreamMode{core.PreRecorded, core.Live, core.LivePreBuffered}
		mode := modes[rng.Intn(len(modes))]
		sc := spec.MultiTreeScenario(n, d, c, mode)
		sc.Packets = 3 * d
		run, err := spec.Build(sc)
		if err != nil {
			t.Fatalf("N=%d d=%d: %v", n, d, err)
		}
		s := run.Scheme
		copt := *run.CheckOpt
		sopt := slotsim.Options{Slots: copt.Horizon, Packets: copt.Packets, Mode: mode}
		tag := s.Name()
		differential(t, tag, s, copt, sopt)

		// Starve the window: everyone must reject, and the engines must
		// reject identically.
		short := copt
		short.Horizon = core.Slot(d)
		sshort := sopt
		sshort.Slots = core.Slot(d)
		differential(t, tag+" (starved)", s, short, sshort)
	}
}

// TestDifferentialHypercube does the same sweep over hypercube families,
// including d=1 single cubes and chained variants.
func TestDifferentialHypercube(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		n := rng.Intn(300) + 1
		d := rng.Intn(4) + 1
		sc := spec.HypercubeScenario(n, d)
		sc.Packets = 8
		run, err := spec.Build(sc)
		if err != nil {
			t.Fatalf("N=%d d=%d: %v", n, d, err)
		}
		copt := *run.CheckOpt
		sopt := slotsim.Options{Slots: copt.Horizon, Packets: copt.Packets, Mode: core.Live}
		differential(t, run.Scheme.Name(), run.Scheme, copt, sopt)
	}
}

// TestDifferentialCluster sweeps composed multi-cluster schemes; options
// come from the scheme itself so capacities and backbone latencies match
// between the verifier and the engines.
func TestDifferentialCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 8; i++ {
		sc := spec.ClusterScenario(
			rng.Intn(5)+1,  // K
			rng.Intn(3)+3,  // D
			rng.Intn(3)+2,  // Tc (the registry floor is 2)
			rng.Intn(12)+4, // per-cluster size
			rng.Intn(2)+2,  // intra degree
			[]multitree.Construction{multitree.Structured, multitree.Greedy}[rng.Intn(2)],
		)
		sc.Packets = 8
		run, err := spec.Build(sc)
		if err != nil {
			t.Fatalf("%+v: %v", sc, err)
		}
		// The registry's engine options carry the backbone latency and
		// capacity maps; the check options come from the same mapping.
		differential(t, run.Scheme.Name(), run.Scheme, *run.CheckOpt, run.Opt)
	}
}

// plainScheme hides any PeriodicScheme methods of the wrapped scheme —
// embedding the interface value exposes only core.Scheme — which forces
// the engine down the uncompiled slot-by-slot path even for periodic
// schedules.
type plainScheme struct{ core.Scheme }

// enginesAgree is the differential harness minus the static verifier, for
// best-effort families the verifier has no model for. Every judge must
// accept and produce identical Results, arrival cells, observer fingerprints,
// and full event streams: the engine as-is (auto-compiled when the schedule is
// periodic), the engine forced down the uncompiled path, and — when the
// scheme compiles — the engine replaying the explicitly compiled window.
func enginesAgree(t *testing.T, tag string, s core.Scheme, sopt slotsim.Options) {
	t.Helper()
	type judge struct {
		name string
		run  func(o slotsim.Options) (*slotsim.Result, error)
	}
	judges := []judge{
		{"seq", func(o slotsim.Options) (*slotsim.Result, error) { return slotsim.Run(s, o) }},
		{"seq-plain", func(o slotsim.Options) (*slotsim.Result, error) { return slotsim.Run(plainScheme{s}, o) }},
	}
	if c := core.CompileSchedule(s); c != nil {
		judges = append(judges, judge{"seq-compiled", func(o slotsim.Options) (*slotsim.Result, error) {
			return slotsim.Run(plainScheme{c}, o)
		}})
	}

	var refName string
	var refRes *slotsim.Result
	var refCells *slotsim.Arrivals
	var refRec *obs.Recorder
	var refFP string
	for _, j := range judges {
		rec := &obs.Recorder{}
		met := obs.NewMetrics()
		o := sopt
		o.Observer = obs.Combine(rec, met)
		o.Arrivals = new(slotsim.Arrivals)
		res, err := j.run(o)
		if err != nil {
			t.Fatalf("%s: %s engine rejected: %v", tag, j.name, err)
		}
		if refRec == nil {
			refName, refRes, refCells, refRec, refFP = j.name, res, o.Arrivals, rec, met.Fingerprint()
			continue
		}
		if !reflect.DeepEqual(refRes, res) || !reflect.DeepEqual(refCells, o.Arrivals) {
			t.Fatalf("%s: %s and %s Results or arrival cells differ", tag, refName, j.name)
		}
		if fp := met.Fingerprint(); fp != refFP {
			t.Fatalf("%s: %s and %s fingerprints differ: %s vs %s", tag, refName, j.name, refFP, fp)
		}
		if !reflect.DeepEqual(refRec.Events, rec.Events) {
			t.Fatalf("%s: %s and %s event streams differ", tag, refName, j.name)
		}
	}
}

// TestDifferentialRandReg sweeps seeded randreg configurations in every
// schedule mode through the multi-judge engine harness. The latin mode
// additionally exercises the compiled judge (auto-compilation plus the
// explicit core.CompileSchedule window), so the periodic contract is
// cross-checked against the uncompiled replay on the same seeds.
func TestDifferentialRandReg(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, mode := range []string{"latin", "pull", "push"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			for i := 0; i < 6; i++ {
				n := rng.Intn(60) + 8
				degree := rng.Intn(3) + 2
				seed := rng.Int63n(1 << 30)
				sc := spec.RandRegScenario(n, degree, mode, seed)
				run, err := spec.Build(sc)
				if err != nil {
					t.Fatalf("n=%d degree=%d seed=%d: %v", n, degree, seed, err)
				}
				tag := fmt.Sprintf("%s n=%d degree=%d seed=%d", run.Scheme.Name(), n, degree, seed)
				enginesAgree(t, tag, run.Scheme, run.Opt)
			}
		})
	}
}

// TestDifferentialRegistry enumerates the scheme registry: every family is
// built from a plain Scenario at a small size and judged — statically
// checkable families by the verifier-versus-engine harness, best-effort
// families by engine agreement. A newly registered family is swept automatically.
func TestDifferentialRegistry(t *testing.T) {
	for _, f := range spec.Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for _, n := range []int{7, 20} {
				sc := &spec.Scenario{Scheme: f.Name, Params: map[string]string{"n": fmt.Sprint(n)}}
				run, err := spec.Build(sc)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				tag := fmt.Sprintf("%s n=%d", f.Name, n)
				if f.Caps.StaticCheck {
					differential(t, tag, run.Scheme, *run.CheckOpt, run.Opt)
				} else {
					enginesAgree(t, tag, run.Scheme, run.Opt)
				}
			}
		})
	}
}
