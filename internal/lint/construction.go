package lint

import (
	"go/ast"
	"go/types"
)

// bannedConstructors maps a scheme package path to the constructor names
// that must only be called through the internal/spec registry. The dynamic
// families (multitree.NewDynamic, hypercube.NewDynamicHC), scheme wrappers
// (multitree.NewScheme, multitree.NewLiveScheme), and variant constructors
// used by the analysis renderers stay callable: the ban covers the
// flag-plumbing duplication the registry exists to end, not the building
// blocks the registry itself is made of.
var bannedConstructors = map[string]map[string]bool{
	"streamcast/internal/multitree": {"New": true},
	"streamcast/internal/hypercube": {"New": true},
	"streamcast/internal/cluster":   {"New": true},
	"streamcast/internal/baseline":  {"NewChain": true, "NewSingleTree": true},
	"streamcast/internal/gossip":    {"New": true},
	"streamcast/internal/randreg":   {"New": true, "NewDigraph": true},
}

// constructionExempt are the packages allowed to call the constructors
// directly: each scheme package itself and the registry that wraps them.
// (Per-package tests are exempt implicitly: the linter only analyzes
// non-test files; internal/spec's guard test extends the ban over the
// test files of the layers above the registry.)
var constructionExempt = []string{
	"streamcast/internal/multitree",
	"streamcast/internal/hypercube",
	"streamcast/internal/cluster",
	"streamcast/internal/baseline",
	"streamcast/internal/gossip",
	"streamcast/internal/randreg",
	"streamcast/internal/spec",
}

// Construction bans direct scheme-constructor calls outside the scheme
// packages and the internal/spec registry. Every other layer must build
// schemes from a spec.Scenario so that parameters are validated, horizons
// derived once, and a newly registered family is automatically swept,
// checked, and benchmarked. Intentional low-level uses (e.g. the trace
// renderers that need the raw tree) carry a //lint:ignore construction
// line.
var Construction = &Analyzer{
	Name: "construction",
	Doc: "scheme constructors (multitree.New, hypercube.New, cluster.New, " +
		"baseline.NewChain/NewSingleTree, gossip.New, randreg.New/NewDigraph) " +
		"must only be called via the internal/spec registry",
	Run: runConstruction,
}

func runConstruction(pass *Pass) {
	for _, exempt := range constructionExempt {
		if pathHasPrefix(pass.Path, exempt) {
			return
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := calleePackageFunc(pass, call)
			if !ok || !bannedConstructors[pkgPath][name] {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct call of %s.%s: construct schemes through the internal/spec registry (spec.Build)",
				pkgPath, name)
			return true
		})
	}
}

// calleePackageFunc resolves a call expression to (package path, function
// name) when the callee is a package-level function of a named import.
func calleePackageFunc(pass *Pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	if pass.Info == nil {
		return "", "", false
	}
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", "", false // methods are not constructors
	}
	return fn.Pkg().Path(), fn.Name(), true
}
