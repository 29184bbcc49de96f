package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
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
// and when an entry on its list is no longer a violation. The CI workflow
// is loaded beside the sources, as text, for the rules that read it.

// ciWorkflow is the CI workflow file, relative to the repository root.
const ciWorkflow = ".github/workflows/ci.yml"

// srcFile is one source file: a parsed .go file, or the text of another.
type srcFile struct {
	path string // slash path from the repository root
	pkg  string // slash directory of the package, "" for the root package
	test bool
	ast  *ast.File // nil for a file that is not Go
	text string    // the contents of a file that is not Go
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
	{
		// The UDP flow core is protocol logic alone: the shell (udp.go)
		// reads the clock, counts and does the I/O, so the core can run
		// under any clock — a test's, or a simulator's.
		name:  "the flow core is pure",
		check: impureFlowCore,
	},
	{
		// A -run pattern that matches nothing passes, so a test deleted
		// or renamed would drop out of a CI step unseen. Every
		// alternative of every -run pattern must name a top-level test
		// (the part before a '/') in the packages its line names. A -run
		// beside -bench keeps the tests out on purpose.
		name:  "every -run pattern in ci.yml names a test",
		check: unmatchedRunPatterns,
	},
	{
		// The facade re-exports the stack's types: a struct or an enum
		// declared again in bcast/ is a second copy that needs
		// converters and drifts from the first. Only the facade's own
		// types are declared here.
		name:  "the facade mirrors no internal type",
		check: facadeMirrors,
		allow: map[string]string{
			"bcast.AlgorithmInfo": "a registry row without its emitters, for listing",
			"bcast.CallOption":    "the per-call option function over the internal options",
			"bcast.Cluster":       "the configured group of ranks and its reused world",
			"bcast.Comm":          "one rank's view of a run, bound to its run's epoch",
			"bcast.Option":        "the cluster option function over the private config",
			"bcast.Persistent":    "the persistent request with its MPI lifecycle",
			"bcast.Scalar":        "the typed helpers' element constraint",
			"bcast.TunerFunc":     "a tuner as a plain function; its Decide makes it a tune.Tuner",
		},
	},
	{
		// The engine's communicator records its own traffic and is the
		// only type offering the engine's capabilities; a communicator
		// that forwards them to one it wraps is the deleted tracing
		// decorator growing back.
		name:  "one set of probes",
		check: secondProbes,
	},
	{
		// A rank blocks in one place: request.harvest, the only caller
		// of parkRank (declared in executor.go), which brackets its
		// select with parkRank/unparkRank. A second caller is a second
		// blocking path growing back, as are the names of the ones that
		// were folded away.
		name:  "one blocking site",
		check: blockingSites,
	},
	{
		// A message writes only what its two ranks own. The request
		// pool's names must not come back (a request is its caller's: a
		// local of the blocking calls, a fresh one from Isend/Irecv),
		// the per-rank progress counts are written through
		// World.progressed alone (progressFile), and an operation's
		// preamble, World.enter, asks whether the world aborted with a
		// load, not a channel select.
		name:  "nothing shared on the message path",
		check: sharedMessagePath,
	},
	{
		// The examples are the facade's contract: they must compile
		// against repro/bcast alone. An internal import there means the
		// public API grew a hole.
		name:  "examples stay on the public API",
		check: internalImportsInExamples,
	},
}

// loadRepo parses every .go file under the repository root and reads
// the CI workflow.
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
		files = append(files, newSrcFile(filepath.ToSlash(p), f, ""))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	return append(files, newSrcFile(ciWorkflow, nil, string(ci)))
}

func newSrcFile(rel string, f *ast.File, text string) srcFile {
	pkg := path.Dir(rel)
	if pkg == "." {
		pkg = ""
	}
	return srcFile{path: rel, pkg: pkg, test: strings.HasSuffix(rel, "_test.go"), ast: f, text: text}
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
		if f.ast == nil || f.test || !strings.HasPrefix(f.pkg, "internal/") {
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
		if f.ast == nil || f.test {
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

// flowCore is the UDP flow core's file; flowImports are the imports it
// may have and clockReads the time functions it may not refer to.
const flowCore = "internal/transport/flow.go"

var (
	flowImports = map[string]bool{
		"errors": true, "fmt": true, "sync": true, "sync/atomic": true, "time": true,
		"repro/internal/bufpool": true,
	}
	clockReads = map[string]bool{
		"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true,
	}
)

// impureFlowCore reports every import of the flow core outside
// flowImports and every reference it makes to a clock read — a call or
// a function value alike.
func impureFlowCore(files []srcFile) []string {
	var out []string
	for _, f := range files {
		if f.path != flowCore || f.ast == nil {
			continue
		}
		timeName := ""
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !flowImports[p] {
				out = append(out, f.path+" imports "+p)
			}
			if p == "time" {
				timeName = "time"
				if im.Name != nil {
					timeName = im.Name.Name
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && timeName != "" && x.Name == timeName && clockReads[sel.Sel.Name] {
					out = append(out, f.path+" reads the clock: time."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	return out
}

// facadeMirrors reports every exported type a non-test file of bcast/
// declares that is not an alias.
func facadeMirrors(files []srcFile) []string {
	var out []string
	for _, f := range files {
		if f.ast == nil || f.test || f.pkg != "bcast" {
			continue
		}
		for _, d := range f.ast.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
				for _, s := range g.Specs {
					if ts := s.(*ast.TypeSpec); ts.Name.IsExported() && !ts.Assign.IsValid() {
						out = append(out, f.pkg+"."+ts.Name.Name)
					}
				}
			}
		}
	}
	return out
}

var (
	// engineMethods are the engine communicator's capabilities, which no
	// type outside internal/engine/ may offer; decoratorNames are the
	// identifiers of the deleted tracing decorator.
	engineMethods = map[string]bool{
		"NextTagStream": true, "Prepost": true, "Bind": true, "SpanRing": true, "WithContext": true,
	}
	decoratorNames = map[string]bool{"tracedComm": true, "tracedRecvReq": true, "RingOf": true}
)

// secondProbes reports every method named in engineMethods that a
// non-test file outside internal/engine/ declares, and every identifier
// named in decoratorNames in any file.
func secondProbes(files []srcFile) []string {
	var out []string
	for _, f := range files {
		if f.ast == nil {
			continue
		}
		if !f.test && !strings.HasPrefix(f.path, "internal/engine/") {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && engineMethods[fd.Name.Name] {
					out = append(out, f.path+" declares method "+fd.Name.Name)
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && decoratorNames[id.Name] {
				out = append(out, f.path+" names "+id.Name)
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

var (
	// parkSite is where parkRank is declared and parkCaller the one
	// function that may refer to it; foldedPaths are the identifiers of
	// the blocking paths folded into it.
	parkSite    = "internal/engine/executor.go"
	parkCaller  = "(*request).harvest"
	foldedPaths = map[string]bool{"remoteSend": true, "creditWait": true}
)

// blockingSites reports, in internal/engine/ (test files included), a
// parkRank declared outside parkSite or not at all, every reference to
// parkRank outside parkCaller — a call or a method value alike — every
// identifier in foldedPaths, and every bool field or parameter named
// track.
func blockingSites(files []srcFile) []string {
	var out []string
	declared := false
	for _, f := range files {
		if f.ast == nil || f.pkg != "internal/engine" {
			continue
		}
		for _, d := range f.ast.Decls {
			where := "a declaration"
			if fd, ok := d.(*ast.FuncDecl); ok {
				where = funcName(fd)
				if fd.Recv != nil && fd.Name.Name == "parkRank" {
					if f.path == parkSite {
						declared = true
					} else {
						out = append(out, f.path+" declares parkRank")
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if n.Sel.Name == "parkRank" && where != parkCaller {
						out = append(out, f.path+": "+where+" refers to parkRank")
					}
				case *ast.Ident:
					if foldedPaths[n.Name] {
						out = append(out, f.path+" names "+n.Name)
					}
				case *ast.Field:
					if id, ok := n.Type.(*ast.Ident); ok && id.Name == "bool" {
						for _, name := range n.Names {
							if name.Name == "track" {
								out = append(out, f.path+" has a bool named track")
							}
						}
					}
				}
				return true
			})
		}
	}
	if !declared {
		out = append(out, parkSite+" declares no parkRank")
	}
	sort.Strings(out)
	return out
}

var (
	// pooledRequestNames are the identifiers of the deleted request
	// pool; progressFile is the one engine file that may touch the
	// progress counts; enterFunc is the operation preamble, which must
	// not call closed.
	pooledRequestNames = map[string]bool{"requestPool": true, "completedRequest": true, "putRequest": true}
	progressFile       = "internal/engine/engine.go"
	enterFunc          = "(*World).enter"
)

// sharedMessagePath reports, in internal/engine/, every identifier in
// pooledRequestNames (test files included); every selector of a field
// named progress (w.progress, c.w.progress) and every progress.Add in a
// non-test file other than progressFile; and every call of closed
// inside enterFunc.
func sharedMessagePath(files []srcFile) []string {
	var out []string
	for _, f := range files {
		if f.ast == nil || f.pkg != "internal/engine" {
			continue
		}
		for _, d := range f.ast.Decls {
			where := "a declaration"
			if fd, ok := d.(*ast.FuncDecl); ok {
				where = funcName(fd)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if pooledRequestNames[n.Name] {
						out = append(out, f.path+" names "+n.Name)
					}
				case *ast.SelectorExpr:
					if f.test || f.path == progressFile {
						break
					}
					x, _ := n.X.(*ast.Ident)
					if n.Sel.Name == "progress" || x != nil && x.Name == "progress" && n.Sel.Name == "Add" {
						out = append(out, f.path+": "+where+" touches "+types.ExprString(n))
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "closed" && where == enterFunc {
						out = append(out, f.path+": "+enterFunc+" calls closed")
					}
				}
				return true
			})
		}
	}
	sort.Strings(out)
	return out
}

// funcName names a function declaration as a reader would: F, or
// (T).M and (*T).M for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t, star := fd.Recv.List[0].Type, ""
	if p, ok := t.(*ast.StarExpr); ok {
		t, star = p.X, "*"
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// internalImportsInExamples reports every import of a repro/internal/
// package by a file under examples/.
func internalImportsInExamples(files []srcFile) []string {
	var out []string
	for _, f := range files {
		if f.ast == nil || !strings.HasPrefix(f.path, "examples/") {
			continue
		}
		for _, im := range f.ast.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, "repro/internal/") {
				out = append(out, f.path+" imports "+p)
			}
		}
	}
	return out
}

var (
	// testFunc is a name go test runs or lists.
	testFunc = regexp.MustCompile(`^(Test|Example|Fuzz|Benchmark)`)
	// goTestRun is a workflow line that runs go test with -run; runArg
	// captures its (last) -run pattern and pkgArg its package arguments.
	goTestRun = regexp.MustCompile(`^ *go test .* -run `)
	runArg    = regexp.MustCompile(` -run '?([^' ]+)'?`)
	pkgArg    = regexp.MustCompile(`\./[^ ]*`)
)

// unmatchedRunPatterns resolves every alternative of every -run pattern
// in the workflow files against the top-level test functions of the
// parsed _test.go files of the packages its line names, and reports each
// alternative that names none.
func unmatchedRunPatterns(files []srcFile) []string {
	tests := map[string][]string{} // package directory -> test function names
	for _, f := range files {
		if f.ast == nil || !f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testFunc.MatchString(fd.Name.Name) {
				tests[f.pkg] = append(tests[f.pkg], fd.Name.Name)
			}
		}
	}
	var out []string
	for _, f := range files {
		if !strings.HasSuffix(f.path, ".yml") {
			continue
		}
		for _, line := range strings.Split(f.text, "\n") {
			if !goTestRun.MatchString(line) || strings.Contains(line, " -bench ") {
				continue
			}
			runs := runArg.FindAllStringSubmatch(line, -1)
			pat := runs[len(runs)-1][1]
			pkgs := pkgArg.FindAllString(line, -1)
			for _, alt := range strings.Split(pat, "|") {
				alt, _, _ = strings.Cut(alt, "/")
				re, err := regexp.Compile(alt)
				if err == nil && !namesATest(re, pkgs, tests) {
					err = fmt.Errorf("%s names no test", alt)
				}
				if err != nil {
					out = append(out, fmt.Sprintf("%s: -run '%s' in %s: %v", f.path, pat, strings.Join(pkgs, " "), err))
				}
			}
		}
	}
	return out
}

// namesATest reports whether re matches a test function of one of pkgs.
func namesATest(re *regexp.Regexp, pkgs []string, tests map[string][]string) bool {
	for _, p := range pkgs {
		for _, name := range tests[strings.TrimPrefix(p, "./")] {
			if re.MatchString(name) {
				return true
			}
		}
	}
	return false
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
		if !strings.HasSuffix(rel, ".go") {
			return newSrcFile(rel, nil, src)
		}
		f, err := parser.ParseFile(token.NewFileSet(), rel, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return newSrcFile(rel, f, "")
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
		{
			rule: "the flow core is pure",
			plant: map[string]string{
				flowCore: `package transport
import "time"
func plantedStamp() time.Time { return time.Now() }
`,
			},
			want: []string{flowCore + " reads the clock: time.Now"},
		},
		{
			rule: "the flow core is pure",
			plant: map[string]string{
				flowCore: `package transport
import "net"
var _ net.Addr
`,
			},
			want: []string{flowCore + " imports net"},
		},
		{
			rule: "every -run pattern in ci.yml names a test",
			plant: map[string]string{
				".github/workflows/planted.yml": `
          go test -race ./internal/engine -run 'PooledBounds|TestNoSuchTest/sub'
          go test ./bcast ./internal/engine -run TestPooledCountsSlotWaits
          go test -run XXX -bench 'BenchmarkNoSuchBench' ./internal/engine
`,
			},
			want: []string{".github/workflows/planted.yml: -run 'PooledBounds|TestNoSuchTest/sub' in ./internal/engine: TestNoSuchTest names no test"},
		},
		{
			rule: "the facade mirrors no internal type",
			plant: map[string]string{
				"bcast/planted.go": `package bcast
import "repro/internal/mpi"
type Status struct{ Source int }
type plantedLocal struct{}
type PlantedAlias = mpi.Status
`,
				"bcast/planted_test.go": `package bcast
type PlantedTestOnly struct{}
`,
			},
			want: []string{"bcast.Status"},
		},
		{
			rule: "one set of probes",
			plant: map[string]string{
				"internal/collective/planted.go": `package collective
import "repro/internal/mpi"
type plantedWrap struct{ mpi.Comm }
func (w plantedWrap) NextTagStream() int { return 0 }
func (w *plantedWrap) WithContext() {}
// a comment may say tracedComm, and a string "RingOf"
func Bind() {}
`,
				"internal/engine/planted.go": `package engine
func (c *comm) SpanRing() {}
`,
				"internal/collective/planted_test.go": `package collective
func (w plantedWrap) Prepost() {}
var _ = RingOf
`,
			},
			want: []string{
				"internal/collective/planted.go declares method NextTagStream",
				"internal/collective/planted.go declares method WithContext",
				"internal/collective/planted_test.go names RingOf",
			},
		},
		{
			rule: "one blocking site",
			plant: map[string]string{
				"internal/engine/planted.go": `package engine
func (b *binding) Move() { b.w.parkRank(b.rank) }
var plantedPark = (*World).parkRank
`,
				"internal/engine/planted_test.go": `package engine
func (w *World) parkRank(rank int) {}
type plantedReq struct{ track bool }
func (r *request) plantedWait(track bool) { r.w.creditWait() }
`,
			},
			want: []string{
				"internal/engine/planted.go: (*binding).Move refers to parkRank",
				"internal/engine/planted.go: a declaration refers to parkRank",
				"internal/engine/planted_test.go declares parkRank",
				"internal/engine/planted_test.go has a bool named track",
				"internal/engine/planted_test.go has a bool named track",
				"internal/engine/planted_test.go names creditWait",
			},
		},
		{
			rule: "one blocking site",
			plant: map[string]string{
				"internal/engine/planted.go": `package engine
// Move must not call creditWait, nor remoteSend, nor track bool state.
func (b *binding) plantedMove() string { return "parkRank" }
`,
			},
		},
		{
			rule: "nothing shared on the message path",
			plant: map[string]string{
				"internal/engine/planted.go": `package engine
var plantedPool = requestPool
func (w *World) plantedCount(rank int) { w.progress[rank].n.Add(1) }
func (c *comm) plantedNested() { c.w.progress[c.rank].n.Add(1) }
func plantedAdd(progress *counter) { progress.Add(1) }
func (w *World) enter(cnl cancelSignal) error {
	if closed(cnl.done) {
		return nil
	}
	return nil
}
`,
				"internal/engine/planted_test.go": `package engine
func plantedPut(r *request) { putRequest(r); w.progress = nil; progress.Add(1) }
`,
			},
			want: []string{
				"internal/engine/planted.go names requestPool",
				"internal/engine/planted.go: (*World).enter calls closed",
				"internal/engine/planted.go: (*World).plantedCount touches w.progress",
				"internal/engine/planted.go: (*comm).plantedNested touches c.w.progress",
				"internal/engine/planted.go: plantedAdd touches progress.Add",
				"internal/engine/planted_test.go names putRequest",
			},
		},
		{
			rule: "nothing shared on the message path",
			plant: map[string]string{
				"internal/engine/engine.go": `package engine
func (w *World) progressed(rank int) { w.progress[rank].n.Add(1) }
func plantedAdd(progress *counter) { progress.Add(1) }
`,
				"internal/engine/planted.go": `package engine
// requestPool, putRequest and closed( in a comment; "w.progress" in a string
func (w *World) plantedEnter() bool { return closed(w.done) }
func (c *comm) plantedProgressed() { c.w.progressed(c.rank) }
`,
			},
		},
		{
			rule: "examples stay on the public API",
			plant: map[string]string{
				"examples/planted/main.go": `package main
import (
	"repro/bcast"
	t "repro/internal/tune"
)
// "repro/internal/mpi" in a comment is no import
var _, _ = bcast.RingOpt, t.RingOpt
func main() {}
`,
			},
			want: []string{"examples/planted/main.go imports repro/internal/tune"},
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
