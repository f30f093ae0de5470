package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path (or a synthetic path for test fixtures).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	// TypeErrors holds non-fatal type-check problems. Analyzers still run
	// on a partially checked package; the caller surfaces these separately.
	TypeErrors []error
}

// Loader parses and type-checks packages of the enclosing module. Imports
// are satisfied from compiled export data produced by `go list -export`, so
// dependencies are never re-type-checked from source.
type Loader struct {
	root    string // the module root directory, where every go list runs
	fset    *token.FileSet
	imp     types.Importer
	exports map[string]string // import path -> export data file
}

// NewLoader builds a loader for the module containing dir, with the export
// data of the module and its full dependency closure from one `go list`.
func NewLoader(dir string) (*Loader, error) {
	l := &Loader{root: dir, fset: token.NewFileSet(), exports: make(map[string]string)}
	root, err := l.goList("-m", "-f", "{{.Dir}}")
	if err != nil {
		return nil, err
	}
	l.root = strings.TrimSpace(root)
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookup)
	out, err := l.goList("-deps", "-export", "-e", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(out, "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			l.exports[path] = file
		}
	}
	return l, nil
}

// lookup feeds export data to the gc importer, consulting the primed map
// first and falling back to a one-package `go list -export` call (needed
// for imports reachable only from test fixtures).
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		out, err := l.goList("-export", "-f", "{{.Export}}", path)
		if err != nil {
			return nil, fmt.Errorf("lint: resolving %s: %w", path, err)
		}
		if file = strings.TrimSpace(out); file == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		l.exports[path] = file
	}
	return os.Open(file)
}

// goList runs `go list` at the module root.
func (l *Loader) goList(args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = l.root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), nil
}

// LoadModule loads every package of the module (the ./... pattern),
// excluding test files, in import-path order.
func (l *Loader) LoadModule() ([]*Package, error) {
	out, err := l.goList("-f", "{{.ImportPath}}\t{{.Dir}}", "./...")
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	sort.Strings(lines)
	var pkgs []*Package
	for _, line := range lines {
		path, dir, _ := strings.Cut(line, "\t")
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the non-test Go files in dir as one package
// under the given import path. The path may be synthetic (test fixtures under
// testdata use paths the go tool never sees).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Fset: l.fset}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	pkg.Info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// The returned error duplicates the collected TypeErrors; analysis
	// proceeds on whatever was checked.
	_, _ = conf.Check(path, l.fset, pkg.Files, pkg.Info)
	return pkg, nil
}
