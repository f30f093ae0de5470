package experiments

import (
	"reflect"
	"testing"

	"streamcast/internal/multitree"
	"streamcast/internal/obs"
)

// withWorkers runs fn under a forced worker-pool size.
func withWorkers(w int, fn func()) {
	old := workerLimit
	workerLimit = w
	defer func() { workerLimit = old }()
	fn()
}

// TestForEachRowOrderAndErrors checks the pool invariants directly: groups
// come back in index order, and the lowest-index error wins — exactly what a
// serial sweep would report.
func TestForEachRowOrderAndErrors(t *testing.T) {
	withWorkers(4, func() {
		groups, err := forEachRow(17, func(i int) ([][]interface{}, error) {
			return [][]interface{}{{i, i * i}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 17 {
			t.Fatalf("got %d groups, want 17", len(groups))
		}
		for i, g := range groups {
			if len(g) != 1 || g[0][0] != i || g[0][1] != i*i {
				t.Fatalf("group %d out of order: %v", i, g)
			}
		}
	})
}

type indexedErr int

func (e indexedErr) Error() string { return "fail" }

func TestForEachRowFirstErrorWins(t *testing.T) {
	withWorkers(4, func() {
		_, err := forEachRow(16, func(i int) ([][]interface{}, error) {
			if i%3 == 2 { // fails at 2, 5, 8, 11, 14
				return nil, indexedErr(i)
			}
			return [][]interface{}{{i}}, nil
		})
		if got, ok := err.(indexedErr); !ok || int(got) != 2 {
			t.Fatalf("got error %v, want the lowest-index failure (2)", err)
		}
	})
}

// runnersUnderTest are sweeps cheap enough to run twice in a unit test.
func runnersUnderTest(t *testing.T) map[string]func() (*Table, error) {
	t.Helper()
	return map[string]func() (*Table, error){
		"figure4": func() (*Table, error) {
			return Figure4(60, 20, []int{2, 3}, multitree.Greedy)
		},
		"table1": func() (*Table, error) {
			return Table1([]int{15, 25}, 2)
		},
		"bounds": func() (*Table, error) {
			return DelayBounds([]int{15, 25}, []int{2, 3})
		},
		"baselines": func() (*Table, error) {
			return Baselines([]int{15})
		},
		"livemodes": func() (*Table, error) {
			return LiveModes([]int{15, 25}, 2)
		},
		"churn": func() (*Table, error) {
			return ChurnSurvival(20, 2, 30, []float64{0.5}, 7)
		},
		"delaydist": func() (*Table, error) {
			return DelayDistribution([]int{15}, 2)
		},
		// One task per (N, scheme, trial): 2 sizes × (2 + 3 modes × 2 trials).
		"randreg": func() (*Table, error) {
			return RandRegFrontier([]int{20, 40}, 3, 2, 1)
		},
	}
}

// TestRunnersDeterministicAcrossWorkerCounts re-runs every parallelized
// sweep serially and with a 4-worker pool: the assembled tables must be
// deeply equal, row for row.
func TestRunnersDeterministicAcrossWorkerCounts(t *testing.T) {
	for name, run := range runnersUnderTest(t) {
		var serial, pooled *Table
		var errS, errP error
		withWorkers(1, func() { serial, errS = run() })
		withWorkers(4, func() { pooled, errP = run() })
		if errS != nil || errP != nil {
			t.Fatalf("%s: serial err %v, pooled err %v", name, errS, errP)
		}
		if !reflect.DeepEqual(serial, pooled) {
			t.Fatalf("%s: table differs between 1 and 4 workers:\nserial: %+v\npooled: %+v", name, serial, pooled)
		}
	}
}

// TestReportSinkForcesSerialSweeps installs a sink and checks that reports
// arrive (and arrive in deterministic order across repeated runs) even with
// a large worker pool configured.
func TestReportSinkForcesSerialSweeps(t *testing.T) {
	collect := func() []string {
		var names []string
		SetReportSink(func(r *obs.RunReport) { names = append(names, r.Scheme) })
		defer SetReportSink(nil)
		var err error
		withWorkers(8, func() { _, err = Baselines([]int{15}) })
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	first := collect()
	if len(first) == 0 {
		t.Fatal("sink saw no reports")
	}
	second := collect()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("report order not deterministic: %v vs %v", first, second)
	}
}
