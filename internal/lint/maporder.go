package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder forbids ranging over a map whose body writes deterministic output
// directly. Go randomizes map iteration order per run, so a map range that
// prints, hashes, emits observer events, or fills slotsim.Result /
// check.Report fields silently breaks the repo's bit-identical output
// guarantees — and a golden over a small map passes whenever the two orders
// happen to coincide. The fix is always the same: collect the keys, sort
// them, and range over the sorted slice.
//
// Only the range body itself is inspected: a sink reached through a call to
// a module function is not seen (the goldens caught that shape when it was
// seeded; STATIC_ANALYSIS.md has the record).
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
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
			if t := pass.TypeOf(rs.X); t == nil {
				return true
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := outputReach(pass.Info, rs.Body); sink != "" {
				pass.Reportf(rs.Pos(),
					"map iteration order reaches deterministic output (%s); collect the keys, sort them, and range over the sorted slice",
					sink)
			}
			return true
		})
	}
}

// outputReach scans a map-range body for a direct write of deterministic
// output and describes the first one found ("" when clean).
func outputReach(info *types.Info, body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			if isOutputSink(info, st) {
				sink = "writes an output sink directly"
			}
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if writesResult(info, lhs) {
					sink = "writes a Result/Report field"
				}
			}
		}
		return sink == ""
	})
	return sink
}

// writesResult reports whether a write target reaches a field of one of the
// structured result types whose contents are observable output
// (slotsim.Result, check.Report): any selector step along the target path
// typed as one of them counts.
func writesResult(info *types.Info, lhs ast.Expr) bool {
	for e := lhs; ; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			switch namedType(info.TypeOf(x.X)) {
			case "streamcast/internal/slotsim.Result", "streamcast/internal/check.Report":
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// isOutputSink classifies deterministic-output calls: formatted printing,
// io/bufio/csv/json writers, fingerprint hashes, and obs.Observer events.
func isOutputSink(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	if sig := fn.Type().(*types.Signature); sig.Recv() == nil {
		switch fn.Pkg().Path() {
		case "fmt":
			return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
		case "io":
			return name == "WriteString" || name == "Copy"
		}
		return false
	}
	// Methods classify by the receiver expression's type, so that interface
	// embedding (hash.Hash64 -> io.Writer.Write) still resolves to the sink.
	switch namedType(info.TypeOf(sel.X)) {
	case "hash.Hash", "hash.Hash32", "hash.Hash64", "hash/maphash.Hash":
		return strings.HasPrefix(name, "Write")
	case "io.Writer", "io.StringWriter", "bufio.Writer", "os.File",
		"encoding/csv.Writer", "encoding/json.Encoder", "text/tabwriter.Writer":
		return strings.HasPrefix(name, "Write") || name == "Encode" || name == "Flush"
	case "streamcast/internal/obs.Observer":
		return true
	}
	return false
}

// namedType returns the pkgpath-qualified name of t after pointer
// dereference, or "" when it is not a named type.
func namedType(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}
