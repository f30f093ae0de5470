package main

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"streamcast/internal/spec"
)

// repoRoot is the module root, seen from this package's directory.
var repoRoot = filepath.Join("..", "..")

// liveFlags are the only options streamsim defines.
var liveFlags = []string{"list-schemes", "pprof", "scenario"}

// TestOnlyThreeFlags: the usage lists exactly liveFlags, so the list the docs
// are checked against cannot drift from the command.
func TestOnlyThreeFlags(t *testing.T) {
	code, _, stderr := invoke([]string{"-h"}, "")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(stderr, -1) {
		got = append(got, m[1])
	}
	slices.Sort(got)
	if !slices.Equal(got, liveFlags) {
		t.Errorf("streamsim defines %v, want exactly %v", got, liveFlags)
	}
}

// flagUse matches the command name followed by one option, in prose or a
// comment.
var flagUse = regexp.MustCompile(`streamsim -([A-Za-z][\w-]*)`)

// TestDocsNameOnlyLiveFlags: no document and no Go comment shows streamsim
// with an option it does not define. The root-level records of past and
// planned work quote flags as they were when written and are not scanned:
// CHANGES.md, ROADMAP.md, and a numbered work item (a file whose first line
// is a title "# <WORD> <number>").
func TestDocsNameOnlyLiveFlags(t *testing.T) {
	check := func(path, text string, line0 int) {
		for i, ln := range strings.Split(text, "\n") {
			for _, m := range flagUse.FindAllStringSubmatch(ln, -1) {
				if !slices.Contains(liveFlags, m[1]) {
					t.Errorf("%s:%d: streamsim has no -%s flag (it takes %v; runs are scenario text)",
						path, line0+i, m[1], liveFlags)
				}
			}
		}
	}

	skill := filepath.Join(repoRoot, ".claude", "skills", "verify", "SKILL.md")
	raw, err := os.ReadFile(skill)
	if err != nil {
		t.Fatal(err)
	}
	check(skill, string(raw), 1)

	workItem := regexp.MustCompile(`^# [A-Z]+ \d+`)
	err = filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != repoRoot && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case filepath.Ext(path) != ".md":
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if filepath.Dir(path) == repoRoot && (d.Name() == "CHANGES.md" || d.Name() == "ROADMAP.md" || workItem.Match(raw)) {
			return nil
		}
		check(path, string(raw), 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, dir := range []string{"cmd", "examples", "internal"} {
		err := filepath.WalkDir(filepath.Join(repoRoot, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fset := token.NewFileSet()
			var s scanner.Scanner
			s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
			for {
				pos, tok, lit := s.Scan()
				if tok == token.EOF {
					return nil
				}
				if tok == token.COMMENT {
					check(path, lit, fset.Position(pos).Line)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFamilyTableMatchesRegistry: every row of SCENARIOS.md's family table
// names a registered family with exactly its capability words (as
// -list-schemes prints them; parenthesised notes aside) and its parameters.
func TestFamilyTableMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "SCENARIOS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "| family | capabilities | parameters |\n")
	if !ok {
		t.Fatal("SCENARIOS.md has no family table")
	}
	backticked := regexp.MustCompile("`([^`]+)`")
	note := regexp.MustCompile(`\([^)]*\)`)
	seen := map[string]bool{}
	for _, row := range strings.Split(table, "\n")[1:] {
		cells := strings.Split(row, "|")
		if len(cells) != 5 {
			break // the table ends at the first line that is not a row
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		f := spec.Lookup(name)
		if f == nil {
			t.Errorf("SCENARIOS.md lists %q, which is not a registered family", name)
			continue
		}
		seen[name] = true

		t.Run(name, func(t *testing.T) {
			var caps []string
			for _, w := range strings.Split(note.ReplaceAllString(cells[2], ""), ",") {
				if w = strings.TrimSpace(w); w != "" {
					caps = append(caps, w)
				}
			}
			if want := capabilities(f); !slices.Equal(caps, want) {
				t.Errorf("SCENARIOS.md: %s capabilities %v, registry %v", name, caps, want)
			}

			var params, want []string
			for _, m := range backticked.FindAllStringSubmatch(cells[3], -1) {
				params = append(params, m[1])
			}
			for _, p := range f.Params {
				want = append(want, p.Name)
			}
			slices.Sort(params)
			slices.Sort(want)
			if !slices.Equal(params, want) {
				t.Errorf("SCENARIOS.md: %s parameters %v, registry %v", name, params, want)
			}
		})
	}
	for _, f := range spec.Families() {
		if !seen[f.Name] {
			t.Errorf("SCENARIOS.md's family table has no row for %s", f.Name)
		}
	}
}
