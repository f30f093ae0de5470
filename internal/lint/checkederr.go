package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CheckedErr forbids silently discarded error returns in non-test internal
// code: a call statement (plain, go, or defer) whose callee returns an error
// must assign or check it. A deliberate discard is spelled `_ = f()`.
//
// The documented escape hatches keep the signal high:
//   - fmt.Print*/Fprint* — formatted output in this repo goes to stdout,
//     strings.Builder or tabwriters whose failures surface elsewhere;
//   - methods of strings.Builder and bytes.Buffer, which are documented to
//     never return a non-nil error;
//   - Write on a hash.Hash/Hash32/Hash64 or maphash.Hash — the hash.Hash
//     contract is "it never returns an error";
//   - methods of *math/rand.Rand — the draw methods have no error result and
//     Read is documented to always return a nil error.
var CheckedErr = &Analyzer{
	Name: "checkederr",
	Run:  runCheckedErr,
}

func runCheckedErr(pass *Pass) {
	if !internalPackage(pass.Path) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = s.Call
			case *ast.DeferStmt:
				call = s.Call
			}
			if call == nil || !returnsError(pass.TypeOf(call)) || errAllowlisted(pass, call) {
				return true
			}
			pass.Reportf(call.Pos(),
				"result of %s contains an error that is discarded; handle it, or assign it to _ where dropping it is deliberate",
				types.ExprString(call.Fun))
			return true
		})
	}
}

// returnsError reports whether a call's result type is error or a tuple
// with an error element.
func returnsError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return t != nil && isErrorType(t)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// errAllowlisted applies the documented exceptions.
func errAllowlisted(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	// Hash writes and rand draws classify by the receiver expression's static
	// type: the methods themselves resolve to embedded interfaces (io.Writer
	// inside hash.Hash), so the *types.Func receiver alone cannot tell a hash
	// write from an arbitrary Write.
	switch namedType(pass.TypeOf(sel.X)) {
	case "hash.Hash", "hash.Hash32", "hash.Hash64", "hash/maphash.Hash":
		if strings.HasPrefix(fn.Name(), "Write") {
			return true
		}
	case "math/rand.Rand":
		return true
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint"))
	}
	switch namedType(sig.Recv().Type()) {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}
