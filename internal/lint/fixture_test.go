package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts `// want `...“ expectations from fixture sources. The
// back-quoted payload is a regexp matched against the diagnostic message.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// expectation is one // want marker.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants parses the // want markers of every fixture file.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(lineText, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, pattern: re})
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<name> under a synthetic internal import
// path, runs the analyzer, and compares diagnostics against // want markers
// — hits and non-hits both, analysistest style.
func runFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loader.LoadDir(dir, "streamcast/internal/fixture/"+name)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture type error: %v", terr)
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	wants := collectWants(t, dir)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || !sameFile(w.file, d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// sameFile compares paths that may differ in absolute/relative rendering.
func sameFile(a, b string) bool {
	return filepath.Base(a) == filepath.Base(b) &&
		filepath.Base(filepath.Dir(a)) == filepath.Base(filepath.Dir(b))
}

func TestNoDeterminismFixture(t *testing.T) { runFixture(t, "nodeterminism", NoDeterminism) }

func TestSlotTypesFixture(t *testing.T) { runFixture(t, "slottypes", SlotTypes) }

func TestObsGuardFixture(t *testing.T) { runFixture(t, "obsguard", ObsGuard) }

func TestCheckedErrFixture(t *testing.T) { runFixture(t, "checkederr", CheckedErr) }

func TestHotAllocFixture(t *testing.T) { runFixture(t, "hotalloc", HotAlloc) }

func TestConstructionFixture(t *testing.T) { runFixture(t, "construction", Construction) }

// TestIgnoreSpanFixture is the regression test for //lint:ignore above
// multi-line statements: the directive must cover the whole statement span.
func TestIgnoreSpanFixture(t *testing.T) { runFixture(t, "ignorespan", CheckedErr) }

func TestMapOrderFixture(t *testing.T) { runFixture(t, "maporder", MapOrder) }
