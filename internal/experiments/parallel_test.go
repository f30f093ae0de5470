package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamcast/internal/multitree"
	"streamcast/internal/obs"
)

// withBudget runs fn under a budget forced to w tokens.
func withBudget(w int, fn func()) {
	old := tokenLimit
	tokenLimit = w
	defer func() { tokenLimit = old }()
	fn()
}

// asTable runs fn as a table body does: holding a token, which forEachTask
// hands back while it waits on its rows.
func asTable(fn func()) {
	defer hold()()
	fn()
}

// TestForEachRowOrderAndErrors checks the pool invariants directly: groups
// come back in index order, and the lowest-index error wins — exactly what a
// serial sweep would report.
func TestForEachRowOrderAndErrors(t *testing.T) {
	withBudget(4, func() {
		asTable(func() {
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
	})
}

type indexedErr int

func (e indexedErr) Error() string { return "fail" }

func TestForEachRowFirstErrorWins(t *testing.T) {
	withBudget(4, func() {
		asTable(func() {
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
		// One task per (N, scheme, trial): 2 sizes × (2 + 3 trials × 3
		// modes), seed-major, each trial's three modes sharing one digraph.
		"randreg": func() (*Table, error) {
			return RandRegFrontier([]int{20, 40}, 3, 3, 1)
		},
	}
}

// TestRunnersDeterministicAcrossWorkerCounts re-runs every parallelized
// sweep serially and under a budget of 4 tokens: the assembled tables must be
// deeply equal, row for row.
func TestRunnersDeterministicAcrossWorkerCounts(t *testing.T) {
	for name, run := range runnersUnderTest(t) {
		var serial, pooled *Table
		var errS, errP error
		withBudget(1, func() { serial, errS = run() })
		withBudget(4, func() { pooled, errP = run() })
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
// a large budget configured.
func TestReportSinkForcesSerialSweeps(t *testing.T) {
	collect := func() []string {
		var names []string
		SetReportSink(func(r *obs.RunReport) { names = append(names, r.Scheme) })
		defer SetReportSink(nil)
		var err error
		withBudget(8, func() { _, err = Baselines([]int{15}) })
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

// overlapTables starts `tables` fake tables at once, each a body that
// computes for a moment around running `rows` tasks through forEachTask;
// fail(t, i) says whether task i of table t fails. It returns each table's error and the
// most bodies and tasks that ever computed at once. A run that does not
// finish within 30 s is reported as a deadlock.
func overlapTables(tb testing.TB, tables, rows int, fail func(t, i int) bool) ([]error, int64) {
	tb.Helper()
	var running, peak atomic.Int64
	compute := func() {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		time.Sleep(100 * time.Microsecond)
		running.Add(-1)
	}
	errs := make([]error, tables)
	var wg sync.WaitGroup
	for t := 0; t < tables; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			asTable(func() {
				compute()
				errs[t] = forEachTask(rows, func(i int) error {
					compute()
					if fail(t, i) {
						return indexedErr(i)
					}
					return nil
				})
				compute()
			})
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		tb.Fatalf("%d tables of %d rows did not finish: deadlock", tables, rows)
	}
	return errs, peak.Load()
}

// TestBudgetBoundsOverlappingTables starts several tables at once, each with
// many rows, under budgets of 1 to 3 tokens: every table finishes, and no
// more bodies and tasks compute at once than the budget has tokens. Above one
// token, the rows of a table spread over the budget.
func TestBudgetBoundsOverlappingTables(t *testing.T) {
	for _, tokens := range []int{1, 2, 3} {
		withBudget(tokens, func() {
			errs, peak := overlapTables(t, 6, 40, func(int, int) bool { return false })
			for i, err := range errs {
				if err != nil {
					t.Fatalf("budget %d: table %d: %v", tokens, i, err)
				}
			}
			if peak > int64(tokens) {
				t.Errorf("budget %d: %d bodies and tasks computed at once", tokens, peak)
			}
			if tokens > 1 && peak < 2 {
				t.Errorf("budget %d: no two tasks ever computed at once", tokens)
			}
		})
	}
}

// TestBudgetLowestErrorWins overlaps tables whose rows fail at several
// indices: each table reports its own lowest-index failure, whatever order
// its rows ran in.
func TestBudgetLowestErrorWins(t *testing.T) {
	for _, tokens := range []int{1, 2, 3} {
		withBudget(tokens, func() {
			// Table t fails at rows t+3, t+7, t+11, ...
			errs, _ := overlapTables(t, 5, 30, func(tab, i int) bool { return i >= tab+3 && (i-tab-3)%4 == 0 })
			for tab, err := range errs {
				if got, ok := err.(indexedErr); !ok || int(got) != tab+3 {
					t.Errorf("budget %d: table %d: got error %v, want the lowest-index failure (%d)", tokens, tab, err, tab+3)
				}
			}
		})
	}
}

// TestTablesOverlapUnderTightBudgets runs every table of runnersUnderTest at
// once, as cmd/experiments does, under budgets of 1 and 2 tokens: each
// finishes with the table it builds alone.
func TestTablesOverlapUnderTightBudgets(t *testing.T) {
	runs := runnersUnderTest(t)
	want := make(map[string]*Table, len(runs))
	for name, run := range runs {
		tab, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = tab
	}
	for _, tokens := range []int{1, 2} {
		withBudget(tokens, func() {
			var mu sync.Mutex
			got := make(map[string]*Table, len(runs))
			var wg sync.WaitGroup
			for name, run := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tab, err := run()
					if err != nil {
						t.Errorf("budget %d: %s: %v", tokens, name, err)
					}
					mu.Lock()
					got[name] = tab
					mu.Unlock()
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("budget %d: overlapping tables did not finish: deadlock", tokens)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("budget %d: overlapping tables differ from tables built alone", tokens)
			}
		})
	}
}

// TestStartedTablesRowsGoFirst frees a token while a row of a started table
// and a new table body both wait for one: the row takes it. Under a budget of
// 2, table x holds one token in its body and table a the other while its
// first row blocks, so a's helper waits with its second row; table b waits to
// start. When x finishes, a's second row must run before b's body does.
func TestStartedTablesRowsGoFirst(t *testing.T) {
	withBudget(2, func() {
		xDone, row0Done, row1Done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var bStarted atomic.Bool
		var wg sync.WaitGroup
		wg.Add(3)
		xIn := make(chan struct{})
		go func() {
			defer wg.Done()
			asTable(func() { close(xIn); <-xDone })
		}()
		<-xIn
		var rowErr error
		go func() {
			defer wg.Done()
			asTable(func() {
				rowErr = forEachTask(2, func(i int) error {
					if i == 0 {
						<-row0Done
						return nil
					}
					defer close(row1Done)
					if bStarted.Load() {
						return errors.New("a new table started before a started table's row")
					}
					return nil
				})
			})
		}()
		// Wait until a's helper is queued for a token, then queue b behind it.
		for waiting := 0; waiting == 0; {
			budget.mu.Lock()
			waiting = budget.rowsWaiting
			budget.mu.Unlock()
			runtime.Gosched()
		}
		go func() {
			defer wg.Done()
			asTable(func() { bStarted.Store(true) })
		}()
		// b reaches the budget almost at once; were it still on its way, the
		// order would hold trivially.
		time.Sleep(20 * time.Millisecond)
		close(xDone)
		<-row1Done
		close(row0Done)
		wg.Wait()
		if rowErr != nil {
			t.Error(rowErr)
		}
	})
}
