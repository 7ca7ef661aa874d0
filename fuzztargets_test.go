package netcluster_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFuzzTargetsListed keeps the Makefile's FUZZ_TARGETS, the list
// `make fuzz-smoke` runs, equal to the set of fuzz functions in the
// tree: a new target is not silently left out, and a deleted one is not
// silently kept.
func TestFuzzTargetsListed(t *testing.T) {
	listed := makefileFuzzTargets(t)
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || d.Name() == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				found = append(found, filepath.ToSlash(filepath.Dir(path))+":"+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	if strings.Join(listed, "\n") != strings.Join(found, "\n") {
		t.Errorf("Makefile FUZZ_TARGETS:\n%s\nfuzz functions in the tree:\n%s",
			strings.Join(listed, "\n"), strings.Join(found, "\n"))
	}
}

// makefileFuzzTargets returns the dir:FuzzName entries of the
// Makefile's FUZZ_TARGETS variable, sorted.
func makefileFuzzTargets(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !in {
			if !strings.HasPrefix(line, "FUZZ_TARGETS =") {
				continue
			}
			in, line = true, strings.TrimPrefix(line, "FUZZ_TARGETS =")
		}
		more := strings.HasSuffix(line, "\\")
		out = append(out, strings.Fields(strings.TrimSuffix(line, "\\"))...)
		if !more {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("Makefile defines no FUZZ_TARGETS")
	}
	sort.Strings(out)
	return out
}
