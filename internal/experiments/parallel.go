package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerLimit caps the number of concurrent row workers; 0 (the default)
// selects GOMAXPROCS. Tests override it to force a specific pool shape.
var workerLimit = 0

// rowWorkers returns the worker-pool size for n independent row builds.
func rowWorkers(n int) int {
	w := workerLimit
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// forEachTask runs n independent tasks on a bounded worker pool. On error the
// lowest-index failure wins, matching what a serial sweep would have reported
// first (a serial sweep also stops there; the pool runs the rest regardless).
//
// When a report sink is installed the sweep stays serial: run reports are
// emitted in deterministic task order, and sink callbacks never race.
func forEachTask(n int, task func(i int) error) error {
	w := rowWorkers(n)
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
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
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

// addGroups appends the ordered row groups produced by forEachRow to a table.
func addGroups(t *Table, groups [][][]interface{}) {
	for _, g := range groups {
		for _, row := range g {
			t.AddRow(row...)
		}
	}
}
