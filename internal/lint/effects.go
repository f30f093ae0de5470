package lint

// Output-reach summaries. ComputeEffects walks every function of the loaded
// packages and derives, bottom-up through the call graph with a fixpoint,
// whether the function's effects reach deterministic output — observer
// events, fingerprint hashes, trace/report/CSV writers, or fields of
// slotsim.Result / check.Report. That is the one fact the maporder analyzer
// needs about a callee it finds inside a map-range body.
//
// The analysis is deliberately syntactic: only statically resolved calls to
// module functions form call edges, so a sink reached solely through an
// interface or func value is invisible unless the call itself is a base sink
// (isOutputSink). Identity across packages is by qualified name, so a summary
// computed from a package's own source matches the *types.Func the importer
// materializes for the same function elsewhere.

import (
	"go/ast"
	"go/types"
	"strings"
)

// FuncEffects is the computed effect summary of one function.
type FuncEffects struct {
	// Emits is set when the function's effects reach deterministic output:
	// observer events, hashes, writers, or Result/Report fields.
	Emits bool
}

// Effects is the module-wide effects index, keyed by qualified function
// name (see funcKey).
type Effects struct {
	fns map[string]*FuncEffects
}

// Of returns the summary for a resolved function object, or nil when the
// function's body was not part of the analyzed packages.
func (e *Effects) Of(fn *types.Func) *FuncEffects {
	if e == nil || fn == nil {
		return nil
	}
	return e.fns[funcKey(fn)]
}

// funcKey renders the cross-package identity of a function: package path,
// receiver type name (pointer stripped) and function name.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			return pkg + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		// Interface receivers and anonymous types: fall back to the bare
		// name; these keys are only used for same-package lookups.
		return pkg + ".(?)." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// ComputeEffects builds the module-wide effects index over the loaded
// packages: each function's direct output reach first, then a fixpoint that
// marks every caller of an emitting function as emitting too.
func ComputeEffects(pkgs []*Package) *Effects {
	idx := &Effects{fns: make(map[string]*FuncEffects)}
	callees := make(map[string][]string) // caller key -> statically resolved module callees
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key, fx := funcKey(obj), &FuncEffects{}
				idx.fns[key] = fx
				callees[key] = summarizeBody(pkg.Info, fd.Body, fx)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for key, fx := range idx.fns {
			if fx.Emits {
				continue
			}
			for _, c := range callees[key] {
				if callee := idx.fns[c]; callee != nil && callee.Emits {
					fx.Emits = true
					changed = true
					break
				}
			}
		}
	}
	return idx
}

// summarizeBody records a function body's direct output reach in fx — a base
// sink call, or a write into a Result/Report field — and returns the keys of
// the module functions it calls statically.
func summarizeBody(info *types.Info, body *ast.BlockStmt, fx *FuncEffects) []string {
	var callees []string
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if outType(info, lhs) {
					fx.Emits = true
				}
			}
		case *ast.IncDecStmt:
			if outType(info, st.X) {
				fx.Emits = true
			}
		case *ast.CallExpr:
			if isOutputSink(info, st) {
				fx.Emits = true
			}
			if fn := calleeFunc(info, st); fn != nil && fn.Pkg() != nil &&
				strings.HasPrefix(fn.Pkg().Path(), "streamcast/") {
				callees = append(callees, funcKey(fn))
			}
		}
		return true
	})
	return callees
}

// outType reports whether a write target reaches one of the structured
// result types whose field order is observable output (slotsim.Result,
// check.Report): any selector step along the target path typed as one of
// them marks the write as output.
func outType(info *types.Info, lhs ast.Expr) bool {
	found := false
	for e := lhs; ; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if isResultLike(info.TypeOf(x.X)) {
				found = true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return found
		}
	}
}

// resultTypes are the named types whose fields constitute deterministic
// run output.
var resultTypes = map[string]bool{
	"streamcast/internal/slotsim.Result": true,
	"streamcast/internal/check.Report":   true,
}

// isResultLike reports whether t (possibly behind a pointer) is one of the
// result types.
func isResultLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return resultTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// calleeFunc statically resolves the called function, nil for dynamic
// calls, builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// observerMethods mirrors the obs.Observer interface: calls of these methods
// through the interface are deterministic-output events.
var observerMethods = map[string]bool{
	"SlotStart": true, "Transmit": true, "Deliver": true,
	"Drop": true, "Violation": true, "SlotEnd": true,
}

// isOutputSink classifies base deterministic-output calls: formatted
// printing, io/bufio/csv/json writers, fingerprint hashes, and
// obs.Observer events. Module functions that wrap these are caught by
// propagation, not listed here.
func isOutputSink(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	if sig.Recv() == nil {
		if fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "fmt":
			return strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")
		case "io":
			return fn.Name() == "WriteString" || fn.Name() == "Copy"
		}
		return false
	}
	// Methods: classify by the receiver expression's type so interface
	// embedding (hash.Hash64 -> io.Writer.Write) still resolves to the sink.
	rt := info.TypeOf(sel.X)
	if rt == nil {
		return false
	}
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	switch full {
	case "hash.Hash", "hash.Hash32", "hash.Hash64", "maphash.Hash":
		return fn.Name() == "Write" || strings.HasPrefix(fn.Name(), "Write")
	case "io.Writer", "io.StringWriter", "bufio.Writer", "os.File",
		"encoding/csv.Writer", "encoding/json.Encoder", "tabwriter.Writer",
		"text/tabwriter.Writer":
		return strings.HasPrefix(fn.Name(), "Write") || fn.Name() == "Encode" || fn.Name() == "Flush"
	case "streamcast/internal/obs.Observer":
		return observerMethods[fn.Name()]
	}
	return false
}
