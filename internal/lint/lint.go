package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer identifier used in diagnostics and in
	// //lint:ignore suppressions.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the package behind the pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package import path ("streamcast/internal/slotsim").
	Path string
	Fset *token.FileSet
	// Files are the parsed non-test source files of the package.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Effects is the module-wide interprocedural effects index (effects.go),
	// computed once per RunAnalyzers invocation over every loaded package.
	Effects *Effects

	diags *[]Diagnostic
}

// Reportf records a finding at the given position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe shorthand for Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// ignoreDirective is the comment prefix that suppresses a finding.
const ignoreDirective = "lint:ignore"

// suppressions maps file -> line -> analyzer names ignored on that line.
// A directive suppresses findings on its own line and over the full line
// span of the statement (or declaration) that starts on its own line or the
// line below it — the usual "comment above the statement" placement keeps
// working when the statement spans multiple lines and the finding is
// reported on one of the later ones.
type suppressions map[string]map[int]map[string]bool

// add marks the analyzer names as ignored on one line of a file.
func (s suppressions) add(file string, line int, names []string) {
	byLine := s[file]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	if byLine[line] == nil {
		byLine[line] = make(map[string]bool)
	}
	for _, name := range names {
		byLine[line][name] = true
	}
}

// collectSuppressions scans a file's comments for //lint:ignore directives
// and extends each one over the whole span of the statement it annotates.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := make(suppressions)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				names := strings.Split(fields[0], ",")
				sup.add(pos.Filename, pos.Line, names)
				sup.add(pos.Filename, pos.Line+1, names)
				// A directive above a statement that spans lines suppresses
				// findings anywhere inside it, not just on its first line.
				if from, to := stmtSpan(fset, f, pos.Line); to > from {
					for line := from; line <= to; line++ {
						sup.add(pos.Filename, line, names)
					}
				}
			}
		}
	}
	return sup
}

// stmtSpan locates the outermost statement or declaration starting on the
// directive's own line or the line below it and returns its line span.
// Simple statements (calls, assignments, go/defer, returns, declarations)
// cover their full extent; compound statements (if/for/switch/func) cover
// only their header up to the opening of the body, so a directive above an
// `if` does not silently blanket the whole block. Returns (0, 0) when no
// statement starts there.
func stmtSpan(fset *token.FileSet, f *ast.File, directiveLine int) (from, to int) {
	line := func(p token.Pos) int { return fset.Position(p).Line }
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || from != 0 {
			return false
		}
		var end token.Pos
		switch x := n.(type) {
		case *ast.BlockStmt, *ast.File, *ast.CaseClause, *ast.CommClause:
			return true // transparent containers: keep descending
		case *ast.IfStmt:
			end = x.Body.Pos()
		case *ast.ForStmt:
			end = x.Body.Pos()
		case *ast.RangeStmt:
			end = x.Body.Pos()
		case *ast.SwitchStmt:
			end = x.Body.Pos()
		case *ast.TypeSwitchStmt:
			end = x.Body.Pos()
		case *ast.SelectStmt:
			end = x.Body.Pos()
		case *ast.FuncDecl:
			if x.Body == nil {
				end = x.End()
			} else {
				end = x.Body.Pos()
			}
		case ast.Stmt:
			end = x.End()
		case ast.Decl:
			end = x.End()
		default:
			return true
		}
		start := line(n.Pos())
		if start == directiveLine || start == directiveLine+1 {
			from, to = start, line(end)
			return false
		}
		// Headers matched above may still contain the annotated statement
		// (e.g. a directive inside a block); keep descending.
		return true
	})
	return from, to
}

// suppressed reports whether the diagnostic is covered by a directive.
func (s suppressions) suppressed(d Diagnostic) bool {
	byLine := s[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	names := byLine[d.Pos.Line]
	return names[d.Analyzer] || names["all"]
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving diagnostics sorted by position. The interprocedural effects
// index is computed once over all packages and shared by every pass.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	effects := ComputeEffects(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		var local []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Effects:  effects,
				diags:    &local,
			}
			a.Run(pass)
		}
		for _, d := range local {
			if !sup.suppressed(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns every registered analyzer in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		SlotTypes,
		ObsGuard,
		CheckedErr,
		HotAlloc,
		Construction,
		MapOrder,
	}
}

// ByName resolves a comma-separated analyzer list ("all" or empty selects
// every analyzer).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
