package lint

import (
	"go/ast"
	"go/types"
)

// hotFuncs are the slotsim functions on the per-slot execution path: they run
// once per slot (or once per run for finish and its helpers) and must not allocate
// maps — the zero-alloc engine contract that the scratch/Runner design
// establishes. Slice appends are allowed (they reuse pooled backing arrays);
// map allocation is always a regression here because map storage cannot be
// recycled across runs without clearing it key by key.
var hotFuncs = map[string]bool{
	"step":              true,
	"route":             true,
	"deliver":           true,
	"validateSends":     true,
	"filterUnavailable": true,
	"pendingArrivals":   true,
	"holds":             true,
	"has":               true,
	"record":            true,
	"growSlots":         true,
	"sendCapOf":         true,
	"recvCapOf":         true,
	"observeFail":       true,
	"noteDelivery":      true,
	"nextTick":          true,
	"enqueue":           true,
	"drain":             true,
	"finish":            true,
	"finishBits":        true,
	"arrivedBy":         true,
	"finishCells":       true,
	"maxBuffer":         true,
}

// HotAlloc flags map allocations inside the slotsim engine's per-slot hot
// path.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag map allocations (make(map...) or map literals) inside the " +
		"slotsim engine's per-slot hot path; these functions run every slot " +
		"and must draw storage from the Runner's reusable scratch instead",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	if !pathHasPrefix(pass.Path, "streamcast/internal/slotsim") &&
		pass.Path != "streamcast/internal/fixture/hotalloc" {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotFuncs[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CallExpr:
					if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) >= 1 {
						if isMapType(pass.TypeOf(e.Args[0])) {
							pass.Reportf(e.Pos(),
								"map allocated in hot-path function %s; the slotsim per-slot path must stay allocation-free — use reusable slice scratch",
								fd.Name.Name)
						}
					}
				case *ast.CompositeLit:
					if isMapType(pass.TypeOf(e)) {
						pass.Reportf(e.Pos(),
							"map literal allocated in hot-path function %s; the slotsim per-slot path must stay allocation-free — use reusable slice scratch",
							fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
