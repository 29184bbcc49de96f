package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// The architecture rules are Go tests over the repository itself: the
// loader reads every .go file (the benchmark/ module included), parsed
// with go/parser, and the text of the other files the rules grep and of
// the CI workflow. A rule is a predicate over those files — their text,
// their syntax, or, for the dead-declaration rule, the non-test files
// type-checked with go/types — plus the list of the violations it lets
// stand, each with its reason. A rule fails by name when it finds a
// violation not on its list, and when an entry on its list is no longer
// a violation.

// ciWorkflow is the CI workflow file, relative to the repository root.
const ciWorkflow = ".github/workflows/ci.yml"

// srcFile is one file of the repository: its text, and its syntax when it
// is Go.
type srcFile struct {
	path string // slash path from the repository root
	pkg  string // slash directory of the package, "" for the root package
	test bool
	// other marks a Go file this platform's build leaves out by its
	// name or its build constraint.
	other bool
	ast   *ast.File // nil for a file that is not Go or lies in testdata
	text  string    // the file's contents
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
		check: deadMembers,
		allow: map[string]string{
			"internal/bench.PaperClaims":          "the index of the paper's claims the tests check one by one",
			"internal/collective.Calls.Len":       "the facade's Plan-cache tests count the Plans a rank holds with it",
			"internal/core.FloorLog2":             "closed-form tree depth the schedule tests count messages with",
			"internal/core.NodeAwareOps":          "NodeAwareOps awaits a row",
			"internal/core.ScatterOwnership":      "the scatter's byte ownership the verifier tests start from",
			"internal/core.ScatterTraffic":        "closed-form scatter traffic the parity oracle compares against",
			"internal/core.TunedSavedMessages":    "closed-form saving the traffic tests compare against",
			"internal/engine.RunWith":             "the shared test harness that boots a world with options",
			"internal/measure.LoadSampleLog":      "reader half of the sample-log format; the round-trip test holds Save to it",
			"internal/metrics.Snapshot.WriteProm": "public through the facade's alias bcast.Snapshot",
			"internal/mpi.BaseTag":                "inverse of StreamTag; the tag-stream tests check StreamTag with it",
			"internal/sched.IntervalSet.Total":    "the interval and scatter-ownership tests count the bytes a set covers with it",
			"internal/sched.Program.Add":          "the verifier, executor and simulator tests build programs op by op with it",
			"internal/sched.Program.Dump":         "the schedule tests print the programs a failed comparison shows with it",
			"internal/sched.Verify":               "the schedule verifier the tests prove every emitter with",
			"internal/testutil.RaceEnabled":       "shared test harness",
			"internal/testutil.WaitGoroutines":    "shared test harness",
			"internal/transport.parseHeader":      "whole-datagram decoder the fuzz test holds parseSplitHeader to",
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
			"bcast.TunerFunc":     "a tuner as a plain function; its Decide makes it a tune.Tuner",
		},
	},
	{
		// The engine's communicator records its own traffic and is the
		// only type implementing mpi.Comm's collective methods; a type
		// outside internal/engine/ that declares them forwards them to a
		// communicator it wraps: the deleted tracing decorator growing
		// back.
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
		// local of the blocking calls, one Prepost keeps for it, or a
		// slot of the rank's late-send ring),
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
	{
		// internal/tune is the selection policy: AutoTune builds each grid
		// point's topology and asks a tune.Measurer for the time of a
		// decision on it. The measurers (the netsim model's in
		// internal/bench, the engine's in internal/measure) live outside
		// it; a schedule (core's emitters or sched's programs), simulator,
		// engine or transport import here is a measurer moving back in.
		name:  "the tuning policy measures nothing",
		check: measuringTuner,
	},
	{
		// The five tools were folded into cmd/bcast; a second entry
		// under cmd/ is a second flag vocabulary growing back.
		name:  "one tool",
		check: secondTools,
	},
	{
		// The collective executor has one rule for when a receive is
		// posted and completed (rankOps.manage) and one loop that runs
		// it. The step-wise overlap mode and the two "-nb" registry rows
		// it served were folded into that rule; their names must not
		// come back, in code, comment or golden file.
		name:  "one executor loop",
		check: foldedOverlap,
	},
	{
		// Every collective runs its emitter through the executor:
		// Scatter, Gather and Allgather the broadcast's scatter tree,
		// that tree reversed and its enclosed ring, Barrier core's
		// dissemination rounds, Reduce and Allreduce core's reduction
		// tree, whose Fold receives combine what arrives. A
		// point-to-point call in a collective file other than exec.go,
		// or one of the tags the hand-written versions sent with, is a
		// second copy growing back.
		name:  "one schedule per pattern",
		check: handWrittenPatterns,
	},
	{
		// The paper's saving is one schedule pass: the opt rows run their
		// native schedules through sched.Emitter.Elide. A (step, flag)
		// branch in an emitter, or the emitters and step counts that
		// wrapped it, is a second statement growing back; Listing 1's
		// port (ComputeStepFlag) stays only as the closed form's oracle.
		name:  "one statement of the saving",
		check: secondSavings,
	},
	{
		// Memory is viewed as another type in two places: the
		// collectives' element views (unsafeFiles[0]), which the
		// facade's typed helpers and the reductions share, and the
		// batched socket I/O's system-call arguments. An unsafe import
		// in any other non-test file is a second view growing back.
		name:  "unsafe in two files",
		check: unsafeImports,
	},
}

// textDirs are the directories every file of which the loader reads, Go
// or not; archFile is the file of the rules themselves.
var (
	textDirs = []string{"internal/", "bcast/", "cmd/"}
	archFile = "arch_test.go"
)

// loadRepo reads the repository: it keeps the text of every .go file and
// of every other file under textDirs, parses every .go file outside a
// testdata directory, and reads the CI workflow.
func loadRepo(t testing.TB) []srcFile {
	t.Helper()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel := filepath.ToSlash(p)
		if !strings.HasSuffix(rel, ".go") && !underAny(rel, textDirs) {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		sf, err := readSrcFile(rel, string(src))
		if err == nil && sf.ast != nil {
			var built bool
			built, err = build.Default.MatchFile(filepath.Dir(p), filepath.Base(p))
			sf.other = !built
		}
		files = append(files, sf)
		return err
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

// readSrcFile makes a srcFile of the file at rel with contents src,
// parsed when it is a .go file outside a testdata directory.
func readSrcFile(rel, src string) (srcFile, error) {
	if !strings.HasSuffix(rel, ".go") || slices.Contains(strings.Split(rel, "/"), "testdata") {
		return newSrcFile(rel, nil, src), nil
	}
	f, err := parser.ParseFile(archFset, rel, src, parser.SkipObjectResolution)
	return newSrcFile(rel, f, src), err
}

// underAny reports whether rel lies under one of dirs.
func underAny(rel string, dirs []string) bool {
	return slices.ContainsFunc(dirs, func(d string) bool { return strings.HasPrefix(rel, d) })
}

func newSrcFile(rel string, f *ast.File, text string) srcFile {
	pkg := path.Dir(rel)
	if pkg == "." {
		pkg = ""
	}
	return srcFile{path: rel, pkg: pkg, test: strings.HasSuffix(rel, "_test.go"), ast: f, text: text}
}

// archFset positions every parsed file, the repository's and the planted
// ones alike, so that one type checker reads them together.
var archFset = token.NewFileSet()

// stdImporter type-checks the standard library from source. It keeps
// every package it checked, so each is checked once per test binary
// however often the rules type-check the module.
var stdImporter = importer.ForCompiler(archFset, "source", nil)

// importPath is the import path of the package in directory dir of this
// repository (module repro, and repro/benchmark inside it).
func importPath(dir string) string {
	if dir == "" {
		return "repro"
	}
	return "repro/" + dir
}

// typedModule is the non-test files of both modules, type-checked
// together: the module's packages from their parsed files, every other
// import through stdImporter.
type typedModule struct {
	files map[string][]*ast.File    // import path -> non-test files
	pkgs  map[string]*types.Package // import path -> checked package
	info  *types.Info
	conf  types.Config
	errs  []string
}

func typeCheck(files []srcFile) *typedModule {
	m := &typedModule{
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		},
	}
	m.conf = types.Config{Importer: m, Error: func(err error) { m.errs = append(m.errs, "type error: "+err.Error()) }}
	for _, f := range files {
		if f.ast != nil && !f.test && !f.other {
			p := importPath(f.pkg)
			m.files[p] = append(m.files[p], f.ast)
		}
	}
	for _, p := range slices.Sorted(maps.Keys(m.files)) {
		m.Import(p)
	}
	return m
}

// Import checks a module package once, after the packages it imports.
func (m *typedModule) Import(p string) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := m.files[p]
	if !ok {
		return stdImporter.Import(p)
	}
	pkg, _ := m.conf.Check(p, archFset, files, m.info) // errors go to m.errs
	m.pkgs[p] = pkg
	return pkg, nil
}

// uses marks every object that n refers to outside own: the identifiers
// it uses, selected fields and methods included, and the fields of the
// structs it builds with positional composite literals.
func (m *typedModule) uses(n ast.Node, own map[types.Object]bool, used map[types.Object]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := m.info.Uses[n]; obj != nil && !own[origin(obj)] {
				used[origin(obj)] = true
			}
		case *ast.CompositeLit:
			if len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			if st, ok := m.info.TypeOf(n).Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					used[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// origin is the generic declaration of a field or method of an
// instantiated type, and obj itself otherwise.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// deadMembers reports every declaration of a non-test file under
// internal/ that no non-test file of either module uses: a top-level func,
// type, const or var, a method, an interface member, or a struct field
// (embedded and blank fields aside). A use inside the declaration itself
// does not count, nor does a method's receiver count as a use of its
// type. A member is used when code selects it, when a positional
// composite literal sets it, or when it implements a method of an
// interface that code selects (an anonymous one included) or of any
// interface declared outside the module. Files the type checker rejects
// are reported as type errors instead.
func deadMembers(files []srcFile) []string {
	m := typeCheck(files)
	if len(m.errs) > 0 {
		return m.errs
	}
	declared := map[types.Object]string{}
	used := map[types.Object]bool{}
	declare := func(internal bool, key string, id *ast.Ident) {
		if internal && id.Name != "_" && id.Name != "init" {
			declared[m.info.Defs[id]] = key
		}
	}
	for _, f := range files {
		if f.ast == nil || f.test || f.other {
			continue
		}
		internal := strings.HasPrefix(f.pkg, "internal/")
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = recvTypeName(d) + "." + name
				}
				declare(internal, f.pkg+"."+name, d.Name)
				own := map[types.Object]bool{m.info.Defs[d.Name]: true}
				m.uses(d.Type, own, used)
				if d.Body != nil {
					m.uses(d.Body, own, used)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					own := map[types.Object]bool{}
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(internal, f.pkg+"."+s.Name.Name, s.Name)
						own[m.info.Defs[s.Name]] = true
						if !s.Assign.IsValid() {
							for _, id := range memberNames(s.Type) {
								declare(internal, f.pkg+"."+s.Name.Name+"."+id.Name, id)
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(internal, f.pkg+"."+id.Name, id)
							own[m.info.Defs[id]] = true
						}
					}
					m.uses(s, own, used)
				}
			}
		}
	}
	m.implemented(used)
	var out []string
	for obj, key := range declared {
		if !used[obj] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// recvTypeName is the name of a method's receiver type.
func recvTypeName(fd *ast.FuncDecl) string {
	t := ast.Unparen(fd.Recv.List[0].Type)
	if p, ok := t.(*ast.StarExpr); ok {
		t = ast.Unparen(p.X)
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	return t.(*ast.Ident).Name
}

// memberNames are the named fields of a struct type literal and the
// methods of an interface type literal.
func memberNames(t ast.Expr) []*ast.Ident {
	var list *ast.FieldList
	switch t := t.(type) {
	case *ast.StructType:
		list = t.Fields
	case *ast.InterfaceType:
		list = t.Methods
	default:
		return nil
	}
	var out []*ast.Ident
	for _, field := range list.List {
		out = append(out, field.Names...)
	}
	return out
}

// implemented marks, on every named type of the module, the methods that
// implement a used method of an interface the type implements, and those
// that implement any method of an exported interface of a package outside
// the module (error included).
func (m *typedModule) implemented(used map[types.Object]bool) {
	live := map[*types.Interface][]*types.Func{} // interface -> its methods that count
	for obj := range used {
		if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
			if it, ok := f.Signature().Recv().Type().Underlying().(*types.Interface); ok {
				live[it] = append(live[it], f)
			}
		}
	}
	outside := func(it *types.Interface) {
		for i := range it.NumMethods() {
			live[it] = append(live[it], it.Method(i))
		}
	}
	outside(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, mod := m.files[p.Path()]; !mod {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && !isGeneric(tn.Type()) {
						outside(it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range m.pkgs {
		visit(p)
	}
	byFirst := map[string][]*types.Interface{} // first method's name -> interfaces
	for it := range live {
		if it.NumMethods() > 0 {
			byFirst[it.Method(0).Name()] = append(byFirst[it.Method(0).Name()], it)
		}
	}
	var named []*types.Named
	for _, p := range m.pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !isGeneric(tn.Type()) {
				named = append(named, tn.Type().(*types.Named))
			}
		}
	}
	for _, inst := range m.info.Instances {
		if n, ok := inst.Type.(*types.Named); ok && n.Obj().Pkg() != nil && m.pkgs[n.Obj().Pkg().Path()] != nil {
			named = append(named, n)
		}
	}
	for _, n := range named {
		var typ types.Type = n
		if !types.IsInterface(n) {
			typ = types.NewPointer(n)
		}
		ms := types.NewMethodSet(typ)
		for i := range ms.Len() {
			for _, it := range byFirst[ms.At(i).Obj().Name()] {
				if !types.Implements(typ, it) {
					continue
				}
				for _, f := range live[it] {
					if obj, _, _ := types.LookupFieldOrMethod(typ, false, f.Pkg(), f.Name()); obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}
}

// isGeneric reports whether t is a named type with type parameters.
func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
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
	// engineMethods are mpi.Comm methods the engine's communicator
	// alone serves the collectives with, which a type outside
	// internal/engine/ may not declare; decoratorNames are the
	// identifiers of the deleted tracing decorator.
	engineMethods = map[string]bool{
		"NextTagStream": true, "Prepost": true, "Presend": true, "WaitPresends": true, "Bind": true,
		"SpanRing": true, "WithContext": true,
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
	if fd.Recv == nil {
		return fd.Name.Name
	}
	star := ""
	if _, ok := ast.Unparen(fd.Recv.List[0].Type).(*ast.StarExpr); ok {
		star = "*"
	}
	return "(" + star + recvTypeName(fd) + ")." + fd.Name.Name
}

// internalImportsInExamples reports every import of a repro/internal/
// package by a file under examples/.
func internalImportsInExamples(files []srcFile) []string {
	return importsWhere(files, func(f srcFile) bool { return strings.HasPrefix(f.path, "examples/") },
		func(p string) bool { return strings.HasPrefix(p, "repro/internal/") })
}

// measuringTuner reports every import of a package that measures or
// replays a broadcast by a non-test file of internal/tune.
func measuringTuner(files []srcFile) []string {
	measuring := map[string]bool{}
	for _, pkg := range []string{"core", "netsim", "sched", "engine", "transport", "measure"} {
		measuring["repro/internal/"+pkg] = true
	}
	return importsWhere(files, func(f srcFile) bool { return f.pkg == "internal/tune" && !f.test },
		func(p string) bool { return measuring[p] })
}

// importsWhere reports every import bad names in a Go file keep selects.
func importsWhere(files []srcFile, keep func(srcFile) bool, bad func(path string) bool) []string {
	var out []string
	for _, f := range files {
		if f.ast == nil || !keep(f) {
			continue
		}
		for _, im := range f.ast.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); bad(p) {
				out = append(out, f.path+" imports "+p)
			}
		}
	}
	return out
}

// secondTools reports every entry of cmd/ other than bcast, and a
// cmd/bcast that holds no file.
func secondTools(files []srcFile) []string {
	entries := map[string]bool{}
	for _, f := range files {
		if rest, ok := strings.CutPrefix(f.path, "cmd/"); ok {
			entry, _, _ := strings.Cut(rest, "/")
			entries["cmd/"+entry] = true
		}
	}
	var out []string
	if !entries["cmd/bcast"] {
		out = append(out, "cmd/bcast is gone")
	}
	for _, e := range slices.Sorted(maps.Keys(entries)) {
		if e != "cmd/bcast" {
			out = append(out, e+" is a second tool")
		}
	}
	return out
}

var (
	// overlapNames are the folded overlap mode's and its rows' names;
	// pointToPoint is a point-to-point call outside execFile; patternTags
	// are the hand-written Scatter, Gather, Allgather and Reduce's tags;
	// wrappedSaving the emitters, step counts and flag that stated the
	// saving a second time; stepFlag names Listing 1's port, which
	// stepFlagFiles alone of the non-test files may name.
	overlapNames  = regexp.MustCompile(`execOverlapped|Overlap:|SegNB|seg-nb`)
	pointToPoint  = regexp.MustCompile(`c\.(Send|Recv|Sendrecv)\(`)
	execFile      = "internal/collective/exec.go"
	patternTags   = regexp.MustCompile(`\b(tagScatter|tagGather|tagAllgather|tagReduce)\b`)
	wrappedSaving = regexp.MustCompile(`\b(RingTunedOps|RingTunedSegOps|SendrecvSteps|DegenerateSteps|tuned bool)\b`)
	stepFlag      = regexp.MustCompile(`\bComputeStepFlag\b`)
	stepFlagFiles = []string{"internal/core/stepflag.go", "internal/core/traffic.go"}
	unsafeFiles   = []string{"internal/collective/view.go", "internal/transport/batchio_linux.go"}
)

// grepLines reports every line of the files keep selects that re
// matches, as path:line: text — code, comment and string alike.
func grepLines(files []srcFile, re *regexp.Regexp, keep func(f srcFile) bool) []string {
	var out []string
	for _, f := range files {
		if !keep(f) {
			continue
		}
		for i, line := range strings.Split(f.text, "\n") {
			if re.MatchString(line) {
				out = append(out, fmt.Sprintf("%s:%d: %s", f.path, i+1, strings.TrimSpace(line)))
			}
		}
	}
	sort.Strings(out)
	return out
}

// foldedOverlap reports every line under textDirs that names the folded
// overlap mode or its rows.
func foldedOverlap(files []srcFile) []string {
	return grepLines(files, overlapNames, func(f srcFile) bool { return underAny(f.path, textDirs) })
}

// handWrittenPatterns reports every point-to-point call in a non-test
// .go file of internal/collective but execFile, and every line under
// internal/ that names a hand-written pattern's tag.
func handWrittenPatterns(files []srcFile) []string {
	out := grepLines(files, pointToPoint, func(f srcFile) bool {
		return f.pkg == "internal/collective" && strings.HasSuffix(f.path, ".go") && !f.test && f.path != execFile
	})
	return append(out, grepLines(files, patternTags, func(f srcFile) bool { return strings.HasPrefix(f.path, "internal/") })...)
}

// secondSavings reports every line of a .go file but archFile (whose
// plants name them) that names a wrapper of the saving, every non-test
// .go file outside stepFlagFiles that names ComputeStepFlag, and each of
// stepFlagFiles that no longer does.
func secondSavings(files []srcFile) []string {
	out := grepLines(files, wrappedSaving, func(f srcFile) bool {
		return strings.HasSuffix(f.path, ".go") && f.path != archFile
	})
	named := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f.path, ".go") && !f.test && stepFlag.MatchString(f.text) {
			named[f.path] = true
		}
	}
	for _, p := range stepFlagFiles {
		if !named[p] {
			out = append(out, p+" no longer names ComputeStepFlag")
		}
		delete(named, p)
	}
	for _, p := range slices.Sorted(maps.Keys(named)) {
		out = append(out, p+" names ComputeStepFlag")
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

// unsafeImports reports every import of unsafe by a non-test file
// outside unsafeFiles.
func unsafeImports(files []srcFile) []string {
	return importsWhere(files, func(f srcFile) bool { return !f.test && !slices.Contains(unsafeFiles, f.path) },
		func(p string) bool { return p == "unsafe" })
}

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

// skipUnderRace skips an architecture test under the race detector: no
// rule depends on it, and type-checking the standard library from
// source in an instrumented binary takes several times as long. CI runs
// both tests without -race in a step of their own.
func skipUnderRace(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the rules read source and do not depend on -race; CI runs them in a step without it")
	}
}

// TestArchitecture holds the repository to every rule.
func TestArchitecture(t *testing.T) {
	skipUnderRace(t)
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

// TestArchitectureRulesFire plants violations, read in memory in place of
// or next to the real repository's files, and checks each rule reports
// them by name.
func TestArchitectureRulesFire(t *testing.T) {
	skipUnderRace(t)
	repo := loadRepo(t)
	for _, tc := range []struct {
		rule  string
		plant map[string]string // file -> source
		want  []string
	}{
		{
			// Every kind of dead declaration fires; below the blank
			// line stand the uses the rule must see: through an
			// anonymous interface, an instantiation (called directly
			// and through an interface), a positional literal and the
			// standard library's interfaces.
			rule: "internal declarations have a non-test caller",
			plant: map[string]string{
				"internal/collective/planted.go": `package collective
import "fmt"
func plantedOrphan() {}
func plantedRecursive(n int) int { if n > 0 { return plantedRecursive(n - 1) }; return 0 }
type plantedType struct{}
func (plantedType) method() {}
const plantedConst, plantedUsed = 1, 2
func plantedTestOnly() {}
var _ = plantedUsed
type plantedNode struct{}
func (n plantedNode) recurse(k int) { if k > 0 { n.recurse(k - 1) } }
var _ = plantedNode{}
type plantedIface interface{ Used(); Unused() }
func plantedCall(i plantedIface) { i.Used() }
var _ = plantedCall
type plantedStruct struct{ used, unused int }
var _ = plantedStruct{used: 1}

type plantedBinder struct{}
func (plantedBinder) BindPlanted() {}
func plantedBind(x any) { if b, ok := x.(interface{ BindPlanted() }); ok { b.BindPlanted() } }
type plantedRing[T any] struct{ items []T }
func (r *plantedRing[T]) push(x T) { r.items = append(r.items, x) }
type plantedBox[T any] struct{ v T }
func (b plantedBox[T]) Get() any { return b.v }
type plantedKey struct{ src, dst, tag int }
type plantedErr struct{}
func (plantedErr) Error() string { return "" }
func (plantedErr) String() string { return "" }
func init() {
	plantedBind(plantedBinder{})
	var r plantedRing[int]
	r.push(1)
	var g interface{ Get() any } = plantedBox[int]{}
	g.Get()
	_ = map[plantedKey]bool{plantedKey{1, 2, 3}: true}
	fmt.Println(error(plantedErr{}))
}
`,
				"internal/collective/planted_test.go": `package collective
var _ = plantedTestOnly
func (plantedType) testOnly() {}
var _ = plantedStruct{unused: 1}
`,
			},
			want: []string{
				"internal/collective.plantedConst",
				"internal/collective.plantedIface.Unused",
				"internal/collective.plantedNode.recurse",
				"internal/collective.plantedOrphan",
				"internal/collective.plantedRecursive",
				"internal/collective.plantedStruct.unused",
				"internal/collective.plantedTestOnly",
				"internal/collective.plantedType",
				"internal/collective.plantedType.method",
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
		{
			rule: "the tuning policy measures nothing",
			plant: map[string]string{
				"internal/tune/planted.go":      "package tune\nimport (\n\t\"repro/internal/netsim\"\n\t\"repro/internal/topology\"\n)\nvar _, _ = netsim.Hornet, topology.SingleNode\n",
				"internal/tune/planted_test.go": "package tune\nimport \"repro/internal/netsim\"\nvar _ = netsim.Hornet\n",
			},
			want: []string{"internal/tune/planted.go imports repro/internal/netsim"},
		},
		{
			rule: "one tool",
			plant: map[string]string{
				"cmd/bcastsim/main.go": "package main\nfunc main() {}\n",
				"cmd/README.md":        "the tools\n",
				"cmd/bcast/planted.go": "package main\n",
			},
			want: []string{"cmd/README.md is a second tool", "cmd/bcastsim is a second tool"},
		},
		{
			rule: "one executor loop",
			plant: map[string]string{
				"internal/collective/planted.go":         "package collective\n// execOverlapped is back\nvar _ = Options{Overlap: true}\n",
				"cmd/bcast/testdata/planted.golden":      "scatter-ring-allgather-seg-nb 4096\n",
				"bcast/planted_test.go":                  "package bcast\nconst plantedSegNB = 1\n",
				"examples/planted/main.go":               "package main\n// SegNB outside the checked directories\n",
				"internal/collective/planted_nb_test.go": "package collective\n// segNb, Overlap = and overlapped are other words\n",
			},
			want: []string{
				"bcast/planted_test.go:2: const plantedSegNB = 1",
				"cmd/bcast/testdata/planted.golden:1: scatter-ring-allgather-seg-nb 4096",
				"internal/collective/planted.go:2: // execOverlapped is back",
				"internal/collective/planted.go:3: var _ = Options{Overlap: true}",
			},
		},
		{
			rule: "one schedule per pattern",
			plant: map[string]string{
				"internal/collective/gather.go":       "package collective\nfunc plantedGather(c mpi.Comm) { c.Sendrecv(nil, 0, 0, nil, 0, 0) }\n// c.SendAll( is another call\n",
				"internal/collective/barrier.go":      "package collective\nfunc plantedBarrier(c mpi.Comm) { c.Sendrecv(nil, 1, 0, nil, 1, 0) }\n",
				"internal/collective/reduce.go":       "package collective\nfunc plantedReduce(c mpi.Comm) { c.Recv(nil, 0, tagReduce) }\n",
				execFile:                              "package collective\nfunc plantedExec(c mpi.Comm) { c.Recv(nil, 0, 0) }\n",
				"internal/collective/planted_test.go": "package collective\nfunc plantedTest(c mpi.Comm) { c.Send(nil, 0, 0) }\n",
				"internal/core/planted_test.go":       "package core\nconst tagGather = 3\nvar tagScatterX = 4\n",
				"bcast/planted.go":                    "package bcast\nconst tagAllgather = 5\n",
				"internal/collective/planted.go":      "package collective\nfunc plantedSend(c mpi.Comm) { c.Send(nil, 0, 0) }\n",
			},
			want: []string{
				"internal/collective/barrier.go:2: func plantedBarrier(c mpi.Comm) { c.Sendrecv(nil, 1, 0, nil, 1, 0) }",
				"internal/collective/gather.go:2: func plantedGather(c mpi.Comm) { c.Sendrecv(nil, 0, 0, nil, 0, 0) }",
				"internal/collective/planted.go:2: func plantedSend(c mpi.Comm) { c.Send(nil, 0, 0) }",
				"internal/collective/reduce.go:2: func plantedReduce(c mpi.Comm) { c.Recv(nil, 0, tagReduce) }",
				"internal/collective/reduce.go:2: func plantedReduce(c mpi.Comm) { c.Recv(nil, 0, tagReduce) }",
				"internal/core/planted_test.go:2: const tagGather = 3",
			},
		},
		{
			rule: "one statement of the saving",
			plant: map[string]string{
				"internal/core/planted.go":        "package core\nfunc RingTunedSegOps() {}\ntype plantedEmit struct{ tuned bool }\nvar _ = ComputeStepFlag\n",
				"benchmark/planted_test.go":       "package main\n// DegenerateSteps, in a comment\nvar _ = core.ComputeStepFlag\n",
				"internal/core/traffic.go":        "package core\n",
				"internal/collective/planted.go":  "package collective\nvar tunedBool, RingTunedOpsX, SendrecvStepsOf = 1, 2, 3\n",
				"internal/core/stepflag_other.go": "package core\n// ComputeStepFlagged is another word\n",
			},
			want: []string{
				"benchmark/planted_test.go:2: // DegenerateSteps, in a comment",
				"internal/core/planted.go:2: func RingTunedSegOps() {}",
				"internal/core/planted.go:3: type plantedEmit struct{ tuned bool }",
				"internal/core/traffic.go no longer names ComputeStepFlag",
				"internal/core/planted.go names ComputeStepFlag",
			},
		},
		{
			rule: "unsafe in two files",
			plant: map[string]string{
				"internal/collective/planted.go":      "package collective\nimport \"unsafe\"\nvar _ = unsafe.Sizeof(0)\n",
				"internal/collective/planted_test.go": "package collective\nimport \"unsafe\"\nvar _ = unsafe.Sizeof(0)\n",
				unsafeFiles[0]:                        "package collective\nimport \"unsafe\"\nvar _ = unsafe.Sizeof(0)\n",
			},
			want: []string{"internal/collective/planted.go imports unsafe"},
		},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			var rule *archRule
			for i := range archRules {
				if archRules[i].name == tc.rule {
					rule = &archRules[i]
				}
			}
			if rule == nil {
				t.Fatalf("no rule %q", tc.rule)
			}
			var files []srcFile
			for _, f := range repo {
				if _, planted := tc.plant[f.path]; !planted {
					files = append(files, f)
				}
			}
			for rel, src := range tc.plant {
				f, err := readSrcFile(rel, src)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
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
		})
	}
}
