package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/multitree"
	"streamcast/internal/spec"
)

// verdict holds the static verifier to its verdicts on one swept
// configuration: it accepts at the horizon its options derive and, when
// starved is positive and the options demand a complete window, rejects the
// same schedule cut to starved slots. The verifier runs the engine, so this is
// not a second opinion on the slot model — the oracle is (TestOracleDifferential)
// — but a sweep of the derived options and bounds over random shapes.
func verdict(t *testing.T, tag string, s core.Scheme, opt check.Options, starved core.Slot) {
	t.Helper()
	if rep, err := check.Static(s, opt); err != nil || !rep.OK() {
		t.Fatalf("%s: rejected at the derived horizon %d: %v %v", tag, opt.Run.Slots, err, rep.Err())
	}
	if starved <= 0 || opt.Run.AllowIncomplete {
		return
	}
	opt.Run.Slots = starved
	if rep, err := check.Static(s, opt); err != nil || rep.OK() {
		t.Fatalf("%s: accepted over a starved horizon of %d slots (err=%v)", tag, starved, err)
	}
}

// TestDifferentialMultitree sweeps seeded random multi-tree configurations
// through the verifier, each both at the verifier-derived horizon (accept)
// and at a starved horizon of d slots (reject).
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
		verdict(t, run.Scheme.Name(), run.Scheme, *run.CheckOpt, core.Slot(d))
	}
}

// TestDifferentialHypercube does the same sweep over hypercube families,
// including d=1 single cubes and chained variants; a one-slot horizon starves
// them.
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
		verdict(t, run.Scheme.Name(), run.Scheme, *run.CheckOpt, 1)
	}
}

// TestDifferentialCluster sweeps composed multi-cluster schemes; the check
// options come from the scheme itself, backbone capacities and latencies
// included.
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
		verdict(t, run.Scheme.Name(), run.Scheme, *run.CheckOpt, 1)
	}
}

// TestDifferentialRandReg sweeps seeded randreg configurations in every
// schedule mode, each judged by the oracle: the engine, bare and observed,
// must produce its Result, arrival cells and verdict.
func TestDifferentialRandReg(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, mode := range []string{"latin", "pull", "push"} {
		t.Run(mode, func(t *testing.T) {
			for i := 0; i < 6; i++ {
				n := rng.Intn(60) + 8
				degree := rng.Intn(3) + 2
				seed := rng.Int63n(1 << 30)
				t.Run(fmt.Sprintf("n=%d/degree=%d/seed=%d", n, degree, seed), func(t *testing.T) {
					agree(t, builder(t, func() (*spec.Scenario, error) {
						return spec.RandRegScenario(n, degree, mode, seed), nil
					}, nil))
				})
			}
		})
	}
}

// TestDifferentialRegistry enumerates the scheme registry: every family is
// built from a plain Scenario at a small size and judged — statically
// checkable families by their verifier verdicts, best-effort families by the
// oracle. A newly registered family is swept automatically.
func TestDifferentialRegistry(t *testing.T) {
	for _, f := range spec.Families() {
		t.Run(f.Name, func(t *testing.T) {
			for _, n := range []int{7, 20} {
				load := func() (*spec.Scenario, error) {
					return &spec.Scenario{Scheme: f.Name, Params: map[string]string{"n": fmt.Sprint(n)}}, nil
				}
				if !f.Caps.StaticCheck {
					agree(t, builder(t, load, nil))
					continue
				}
				run := builder(t, load, nil)()
				verdict(t, fmt.Sprintf("%s n=%d", f.Name, n), run.Scheme, *run.CheckOpt, 1)
			}
		})
	}
}
