package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The architecture rules are Go tests over the module's own syntax: the
// loader parses every .go file of the repository (the benchmark/ module
// included) with go/parser, and a rule is a predicate over the parsed
// files plus the list of the violations it lets stand, each with its
// reason. A rule fails by name when it finds a violation not on its list,
// and when an entry on its list is no longer a violation.

// srcFile is one parsed source file.
type srcFile struct {
	pkg  string // slash directory of the package, "" for the root package
	test bool
	ast  *ast.File
}

// archRule is one architecture rule.
type archRule struct {
	name  string
	check func(files []srcFile) []string
	allow map[string]string // violation -> why it stands
}

var archRules = []archRule{
	{
		// Code only tests reach is weight every reader carries and no
		// program needs: delete it, or say here why it stays.
		name:  "internal declarations have a non-test caller",
		check: unreferencedDecls,
		allow: map[string]string{
			"internal/bench.PaperClaims":       "the index of the paper's claims the tests check one by one",
			"internal/core.FloorLog2":          "closed-form tree depth the schedule tests count messages with",
			"internal/core.NodeAwareOps":       "NodeAwareOps awaits a row",
			"internal/core.ScatterOwnership":   "the scatter's byte ownership the verifier tests start from",
			"internal/core.ScatterTraffic":     "closed-form scatter traffic the parity oracle compares against",
			"internal/core.TunedSavedMessages": "closed-form saving the traffic tests compare against",
			"internal/engine.RunWith":          "the shared test harness that boots a world with options",
			"internal/measure.LoadSampleLog":   "reader half of the sample-log format; the round-trip test holds Save to it",
			"internal/mpi.BaseTag":             "inverse of StreamTag; the tag-stream tests check StreamTag with it",
			"internal/mpi.WaitAll":             "the engine's request tests complete their requests through it",
			"internal/sched.FullBuffer":        "verifier oracle: every rank ends with the whole buffer",
			"internal/sched.Verify":            "the schedule verifier the tests prove every emitter with",
			"internal/testutil.RaceEnabled":    "shared test harness",
			"internal/testutil.WaitGoroutines": "shared test harness",
			"internal/transport.parseHeader":   "whole-datagram decoder the fuzz test holds parseSplitHeader to",
		},
	},
}

// loadRepo parses every .go file under the repository root.
func loadRepo(t testing.TB) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, newSrcFile(filepath.ToSlash(p), f))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func newSrcFile(rel string, f *ast.File) srcFile {
	pkg := path.Dir(rel)
	if pkg == "." {
		pkg = ""
	}
	return srcFile{pkg: pkg, test: strings.HasSuffix(rel, "_test.go"), ast: f}
}

// importDir maps an import path of this repository (module repro, and
// repro/benchmark inside it) to its directory; other paths map to "".
func importDir(importPath string) string {
	if dir, ok := strings.CutPrefix(importPath, "repro/"); ok {
		return dir
	}
	return ""
}

// unreferencedDecls reports every top-level func, type, const and var of
// a non-test file under internal/ that no non-test file refers to. A
// reference is a qualified pkg.Name from an importing file, or a bare
// Name in the declaring package outside the declaration itself; methods
// are reached through values, so they are not checked, and a receiver
// does not count as a reference to its type.
func unreferencedDecls(files []srcFile) []string {
	declared := map[string]bool{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			for _, name := range topLevelNames(d) {
				if name != "_" && name != "init" {
					declared[f.pkg+"."+name] = true
				}
			}
		}
	}
	used := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = importDir(p)
		}
		for _, d := range f.ast.Decls {
			own := map[string]bool{}
			for _, name := range topLevelNames(d) {
				own[name] = true
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := imports[x.Name]; ok {
							used[dir+"."+n.Sel.Name] = true
							return false
						}
					}
					ast.Inspect(n.X, visit) // n.Sel is a field or method
					return false
				case *ast.Ident:
					if !own[n.Name] {
						used[f.pkg+"."+n.Name] = true
					}
				}
				return true
			}
			for _, n := range declBody(d) {
				ast.Inspect(n, visit)
			}
		}
	}
	var out []string
	for key := range declared {
		if !used[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// topLevelNames returns the package-level names a declaration declares
// (none for a method or an import).
func topLevelNames(d ast.Decl) []string {
	var names []string
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			names = append(names, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				names = append(names, s.Name.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					names = append(names, n.Name)
				}
			}
		}
	}
	return names
}

// declBody returns the parts of a declaration that can refer to other
// declarations: everything but its own names and a method's receiver.
func declBody(d ast.Decl) []ast.Node {
	var out []ast.Node
	switch d := d.(type) {
	case *ast.FuncDecl:
		out = append(out, d.Type)
		if d.Body != nil {
			out = append(out, d.Body)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				if s.TypeParams != nil {
					out = append(out, s.TypeParams)
				}
				out = append(out, s.Type)
			case *ast.ValueSpec:
				if s.Type != nil {
					out = append(out, s.Type)
				}
				for _, v := range s.Values {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// TestArchitecture holds the repository to every rule.
func TestArchitecture(t *testing.T) {
	files := loadRepo(t)
	for _, r := range archRules {
		got := map[string]bool{}
		for _, v := range r.check(files) {
			got[v] = true
			if _, ok := r.allow[v]; !ok {
				t.Errorf("rule %q: %s", r.name, v)
			}
		}
		for v := range r.allow {
			if !got[v] {
				t.Errorf("rule %q: %s is listed but no longer a violation; drop the entry", r.name, v)
			}
		}
	}
}

// TestArchitectureRulesFire plants violations, parsed in memory next to
// the real repository, and checks each rule reports them by name.
func TestArchitectureRulesFire(t *testing.T) {
	repo := loadRepo(t)
	parse := func(rel, src string) srcFile {
		f, err := parser.ParseFile(token.NewFileSet(), rel, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return newSrcFile(rel, f)
	}
	for _, tc := range []struct {
		rule  string
		plant map[string]string // file -> source
		want  []string
	}{
		{
			rule: "internal declarations have a non-test caller",
			plant: map[string]string{
				"internal/collective/planted.go": `package collective
func plantedOrphan() {}
func plantedRecursive(n int) int { if n > 0 { return plantedRecursive(n - 1) }; return 0 }
type plantedType struct{}
func (plantedType) method() {}
const plantedConst, plantedUsed = 1, 2
func plantedTestOnly() {}
var _ = plantedUsed
`,
				"internal/collective/planted_test.go": `package collective
var _ = plantedTestOnly
`,
			},
			want: []string{
				"internal/collective.plantedConst",
				"internal/collective.plantedOrphan",
				"internal/collective.plantedRecursive",
				"internal/collective.plantedTestOnly",
				"internal/collective.plantedType",
			},
		},
		{
			rule: "internal declarations have a non-test caller",
			plant: map[string]string{
				"internal/sched/planted.go": `package sched
func PlantedExported() {}
`,
				"cmd/planted/main.go": `package main
import s "repro/internal/sched"
func main() { s.PlantedExported() }
`,
			},
		},
	} {
		var rule *archRule
		for i := range archRules {
			if archRules[i].name == tc.rule {
				rule = &archRules[i]
			}
		}
		if rule == nil {
			t.Fatalf("no rule %q", tc.rule)
		}
		files := append([]srcFile(nil), repo...)
		for rel, src := range tc.plant {
			files = append(files, parse(rel, src))
		}
		var got []string
		for _, v := range rule.check(files) {
			if _, ok := rule.allow[v]; !ok {
				got = append(got, v)
			}
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("rule %q on %d planted files: got %v, want %v", tc.rule, len(tc.plant), got, tc.want)
		}
	}
}
