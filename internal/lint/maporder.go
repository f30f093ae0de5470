package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder forbids ranging over a map on any path whose effects reach
// deterministic output. Go randomizes map iteration order per run, so a map
// range that feeds observer events, fingerprint hashes, trace/report/CSV
// writers, or Result/Report fields silently breaks the repo's bit-identical
// output guarantees. The fix is always the same: collect the keys, sort
// them, and range over the sorted slice.
//
// Output reach is decided per range body: a direct call to a base output
// sink (effects.go's classification), a call to a module function whose
// interprocedural effects summary is marked Emits, or a write into a
// slotsim.Result / check.Report field.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid ranging over a map when the body's effects reach deterministic " +
		"output (observer events, hashes, writers, Result/Report fields); sort " +
		"the keys first",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	if !internalPackage(pass.Path) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := outputReach(pass, rs.Body); sink != "" {
				pass.Reportf(rs.Pos(),
					"map iteration order reaches deterministic output (%s); collect the keys, sort them, and range over the sorted slice",
					sink)
			}
			return true
		})
	}
}

// outputReach scans a map-range body for anything whose effects touch
// deterministic output and describes the first sink found ("" when clean).
func outputReach(pass *Pass, body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.CallExpr:
			if isOutputSink(pass.Info, st) {
				sink = "writes an output sink directly"
				return false
			}
			if fn := calleeFunc(pass.Info, st); fn != nil {
				if fx := pass.Effects.Of(fn); fx != nil && fx.Emits {
					sink = "calls " + fn.Name() + ", whose effects emit output"
					return false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if outType(pass.Info, lhs) {
					sink = "writes a Result/Report field"
					return false
				}
			}
		}
		return true
	})
	return sink
}
