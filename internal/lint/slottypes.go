package lint

import (
	"go/ast"
	"go/types"
)

// slotTypeNames are the three core identifier types that share an int
// underlying type. Converting one directly into another compiles fine and is
// almost always a unit error (a slot is not a packet number is not a node
// id); the rare legitimate crossing — e.g. "in live mode, packet p is
// produced at slot p" — must spell out an int(...) bridge so the intent is
// visible at the call site.
var slotTypeNames = map[string]bool{
	"NodeID": true,
	"Packet": true,
	"Slot":   true,
}

// SlotTypes flags direct conversions between core.NodeID, core.Packet and
// core.Slot; a cross-domain conversion must bridge through int(...).
var SlotTypes = &Analyzer{
	Name: "slottypes",
	Run:  runSlotTypes,
}

func runSlotTypes(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			// A conversion is a call whose callee denotes a type.
			tv, ok := pass.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			dst := coreSlotType(tv.Type)
			if dst == "" {
				return true
			}
			src := coreSlotType(pass.TypeOf(call.Args[0]))
			if src == "" || src == dst {
				return true
			}
			pass.Reportf(call.Pos(),
				"conversion core.%s(...) applied to a core.%s; if the crossing is intended, bridge explicitly via core.%s(int(...))",
				dst, src, dst)
			return true
		})
	}
}

// coreSlotType returns the name of the core identifier type behind t, or ""
// when t is not one of them.
func coreSlotType(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "streamcast/internal/core" {
		return ""
	}
	if !slotTypeNames[obj.Name()] {
		return ""
	}
	return obj.Name()
}
