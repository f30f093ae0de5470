package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package time functions that read the wall clock.
// Any of them inside an engine or scheme package breaks bit-identical
// replays, schedule fingerprints, and resume-from-trace.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// globalRandFuncs are the package-level math/rand functions that draw from
// the process-global, non-reproducible source. Seeded generators built with
// rand.New(rand.NewSource(seed)) remain allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// NoDeterminism forbids wall-clock reads and global math/rand draws in
// internal packages.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc: "forbid time.Now/Since/Until and global math/rand draws in internal " +
		"packages; they break bit-identical replays and deterministic resume",
	Run: runNoDeterminism,
}

func runNoDeterminism(pass *Pass) {
	if !internalPackage(pass.Path) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			pkg := packageOf(obj)
			if pkg == nil {
				return true
			}
			switch {
			case pkg.Path() == "time" && wallClockFuncs[obj.Name()]:
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock; engine and scheme code must be deterministic (inject slots or timestamps instead)",
					obj.Name())
			case pkg.Path() == "math/rand" && globalRandFuncs[obj.Name()] && isPackageFunc(obj):
				pass.Reportf(sel.Pos(),
					"rand.%s uses the global, unseeded source; build a seeded generator with rand.New(rand.NewSource(seed))",
					obj.Name())
			}
			return true
		})
	}
}

// packageOf returns the defining package of an object, nil for builtins and
// unresolved identifiers.
func packageOf(obj types.Object) *types.Package {
	if obj == nil {
		return nil
	}
	return obj.Pkg()
}

// isPackageFunc reports whether the object is a package-level function (not
// a method, so rand.Rand.Intn on a seeded generator stays allowed).
func isPackageFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
