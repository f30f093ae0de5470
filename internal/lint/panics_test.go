package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

// panicSites lists every panic call in the module's non-test code, keyed by
// the function that holds it (as declKey names it), with the invariant that
// makes each unreachable, one entry per call in source order. Every other
// failure a hostile input can cause ends in an error.
var panicSites = map[string][]string{
	"streamcast/internal/spec.Values.Int": {
		"a builder reads only Values that Param.validate accepted with the same strconv.Atoi",
	},
	"streamcast/internal/spec.Values.Int64": {
		"a builder reads only Values that Param.validate accepted with the same strconv.ParseInt",
	},
	"streamcast/internal/spec.register": {
		"register runs only from this package's init functions, each with its own literal family name, so a clash panics as the package loads, in every test run",
		"every family literal sets build and defaultPackets; one that did not would panic as the package loads, in every test run",
	},
	"streamcast/internal/slotsim.BuildReport": {
		"every caller keeps the run's arrival record before it builds a report: cmd/streamsim and bench/pipeline.go pass the options spec.Build returns for a scenario with `out report=`, which set Options.Arrivals, and internal/experiments sets it while a report sink is installed (TestReportCallersKeepTheRecord in cmd/streamsim, internal/spec and internal/experiments)",
	},
	"streamcast/internal/stats.SplitMix64.Intn": {
		"every caller passes a positive bound: PermInto's i+1, and randreg's degree d and nodes·d, which NewDigraph holds to d ≥ 2",
	},
	"streamcast/internal/randreg.Digraph.colorEdges": {
		"in a d-regular digraph a node has at most d−1 colored edges on each side when its next edge is inserted, so one of its d colors is free",
	},
}

// TestPanicInventory fails when the module's non-test code gains a panic
// call panicSites does not list, or loses one it does.
func TestPanicInventory(t *testing.T) {
	found := map[string]int{}
	for _, pkg := range loadModule(t, ".") {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				key := pkg.Path + " (package-level declaration)"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if obj := pkg.Info.Defs[fd.Name]; obj != nil {
						key = declKey(obj)
					} else {
						key = pkg.Path + "." + fd.Name.Name
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok {
							if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
								found[key]++
							}
						}
					}
					return true
				})
			}
		}
	}
	keys := make([]string, 0, len(found)+len(panicSites))
	for key := range found {
		keys = append(keys, key)
	}
	for key := range panicSites {
		if found[key] == 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		if got, want := found[key], len(panicSites[key]); got != want {
			t.Errorf("%s holds %d panic calls, panicSites lists %d: turn a new one into an error or list it with the invariant that makes it unreachable, and drop the entry of one that has gone", key, got, want)
		}
	}
}
