package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tokenLimit caps the process-wide CPU budget; 0 (the default) selects
// GOMAXPROCS. Tests override it to force a specific budget.
var tokenLimit = 0

// budgetLimit returns the number of tokens in the budget.
func budgetLimit() int {
	if tokenLimit > 0 {
		return tokenLimit
	}
	return runtime.GOMAXPROCS(0)
}

// budget is the process-wide CPU budget: a goroutine computes a table body or
// a row task only while it holds one of budgetLimit() tokens, so tables run
// concurrently (cmd/experiments starts them all at once) keep every core busy
// without oversubscribing them.
var budget struct {
	mu   sync.Mutex
	cond sync.Cond
	used int
	// rowsWaiting counts the goroutines waiting for a token to run the rows
	// of a table already started.
	rowsWaiting int
}

func init() { budget.cond.L = &budget.mu }

// acquire blocks until a token is free and takes it. A freed token goes to
// the rows of a table already started (row) before it starts another table,
// so few tables are in flight at once and their rows' memory is not live side
// by side (PERFORMANCE.md §8, "Tables overlap").
func acquire(row bool) {
	budget.mu.Lock()
	if row {
		budget.rowsWaiting++
	}
	for budget.used >= budgetLimit() || !row && budget.rowsWaiting > 0 {
		budget.cond.Wait()
	}
	if row {
		budget.rowsWaiting--
	}
	budget.used++
	budget.mu.Unlock()
}

// release returns a token and wakes every waiter: which of them may take it
// depends on what each waits for.
func release() {
	budget.mu.Lock()
	budget.used--
	budget.mu.Unlock()
	budget.cond.Broadcast()
}

// hold takes a token for a table body and returns its release. Every exported
// table function starts with `defer hold()()`, so a caller never needs a token
// of its own, and forEachTask, which only table bodies call, may hand its
// caller's token back while it waits.
func hold() func() {
	acquire(false)
	return release
}

// forEachTask runs n independent tasks under the budget. The caller, which
// holds a token, runs tasks itself; up to budgetLimit()-1 helpers join it,
// each taking a token per task. Once no task is left to claim, the caller
// hands its token back while it waits for the helpers' last tasks, and takes
// one again before it returns. On error the lowest-index failure wins,
// matching what a serial sweep would have reported first (a serial sweep also
// stops there; the helpers run the rest regardless).
//
// When a report sink is installed the sweep stays serial: run reports are
// emitted in deterministic task order, and sink callbacks never race.
func forEachTask(n int, task func(i int) error) error {
	w := min(budgetLimit(), n)
	if w <= 1 || reportsActive() {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	claim := func() (int, bool) {
		i := int(next.Add(1)) - 1
		return i, i < n
	}
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				acquire(true)
				i, ok := claim()
				if ok {
					errs[i] = task(i)
				}
				release()
				if !ok {
					return
				}
			}
		}()
	}
	for i, ok := claim(); ok; i, ok = claim() {
		errs[i] = task(i)
	}
	release()
	wg.Wait()
	acquire(true)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachRow evaluates n independent row builds — build(i) returns the group
// of table rows for sweep index i — through forEachTask and returns the
// groups in index order, so the assembled table is byte-identical to a serial
// sweep regardless of scheduling.
func forEachRow(n int, build func(i int) ([][]interface{}, error)) ([][][]interface{}, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([][][]interface{}, n)
	err := forEachTask(n, func(i int) (err error) {
		out[i], err = build(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fillRows builds t's rows through forEachRow, group after group in index
// order, and returns t, or the error forEachRow reports.
func fillRows(t *Table, n int, build func(i int) ([][]interface{}, error)) (*Table, error) {
	groups, err := forEachRow(n, build)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		for _, row := range g {
			t.AddRow(row...)
		}
	}
	return t, nil
}
