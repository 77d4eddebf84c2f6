package insidedropbox

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	fenced    = regexp.MustCompile("(?s)```[^\n]*\n(.*?)```")
	inline    = regexp.MustCompile("`([^`]+)`")
	testName  = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	command   = regexp.MustCompile(`^(?:\S*cmd/)?(dropsim|experiments)$`)
	flagToken = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
)

// TestDocsNameLiveTestsAndFlags keeps the docs from rotting: every
// backticked Test*, Fuzz*, Benchmark* or Example* name in EXPERIMENTS.md,
// PERFORMANCE.md and README.md is defined by some _test.go, and every flag
// a backticked or fenced dropsim or experiments command line passes is one
// that command registers, itself or through the internal/cli Bind*
// functions its sources call. The one exception is the first
// column of PERFORMANCE.md's table of the retired harness's successors,
// which names what is gone. benchmark/README.md is left out while it still
// names the retired serialize-workers knob.
func TestDocsNameLiveTestsAndFlags(t *testing.T) {
	defined := testFuncs(t)
	flags := map[string]map[string]bool{
		"dropsim":     registeredFlags(t, "cmd/dropsim"),
		"experiments": registeredFlags(t, "cmd/experiments"),
	}
	for _, doc := range []string{"EXPERIMENTS.md", "PERFORMANCE.md", "README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(dropRetiredColumn(string(b))) {
			for _, name := range testName.FindAllString(span, -1) {
				if !defined[name] {
					t.Errorf("%s: `%s` names %s, which no _test.go defines", doc, span, name)
				}
			}
			for _, f := range commandFlags(span) {
				if cmd, flag := f[0], f[1]; !flags[cmd][flag] {
					t.Errorf("%s: `%s` passes -%s, which %s does not register", doc, span, flag, cmd)
				}
			}
		}
	}
}

// testFuncs returns the name of every Test, Fuzz, Benchmark and Example
// function the module's _test.go files define.
func testFuncs(t *testing.T) map[string]bool {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(b), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}

// registeredFlags returns the flag names command dir registers: those its
// non-test Go files register, those of each internal/cli function they
// call (cli.BindSpec, cli.BindPopulation, …), and the -h and -help every
// flag set answers.
func registeredFlags(t *testing.T, dir string) map[string]bool {
	own, calls := flagsByFunc(t, dir)
	shared, _ := flagsByFunc(t, "internal/cli")
	names := map[string]bool{"h": true, "help": true}
	for _, flags := range own {
		maps.Copy(names, flags)
	}
	for fn := range calls {
		maps.Copy(names, shared[fn])
	}
	return names
}

// flagsByFunc scans the non-test Go files of dir. It returns, per
// top-level function, the string-literal name of every flag.FlagSet method
// call the function makes (String, Int, … at argument 0; StringVar, Var, …
// at argument 1), and the names of the cli.X functions the files call.
func flagsByFunc(t *testing.T, dir string) (map[string]map[string]bool, map[string]bool) {
	byValue := map[string]bool{"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
		"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true}
	flags, calls := map[string]map[string]bool{}, map[string]bool{}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			names := map[string]bool{}
			flags[fn.Name.Name] = names
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "cli" {
					calls[sel.Sel.Name] = true
				}
				arg := -1
				switch {
				case byValue[sel.Sel.Name]:
					arg = 0
				case strings.HasSuffix(sel.Sel.Name, "Var"):
					arg = 1
				}
				if arg >= 0 && arg < len(call.Args) {
					if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						names[name] = true
					}
				}
				return true
			})
		}
	}
	return flags, calls
}

// dropRetiredColumn blanks the first column of PERFORMANCE.md's table of
// the retired harness's successors.
func dropRetiredColumn(doc string) string {
	before, table, ok := strings.Cut(doc, "Every scenario of the retired gate has a successor:\n\n")
	if !ok {
		return doc
	}
	rows := strings.Split(table, "\n")
	for i := 0; i < len(rows) && strings.HasPrefix(rows[i], "|"); i++ {
		_, rest, _ := strings.Cut(rows[i][1:], "|")
		rows[i] = "| |" + rest
	}
	return before + strings.Join(rows, "\n")
}

// codeSpans returns a document's code: each logical line of a fenced block
// (backslash continuations joined), then each inline span.
func codeSpans(doc string) []string {
	var spans []string
	for _, m := range fenced.FindAllStringSubmatch(doc, -1) {
		spans = append(spans, strings.Split(strings.ReplaceAll(m[1], "\\\n", " "), "\n")...)
	}
	for _, m := range inline.FindAllStringSubmatch(fenced.ReplaceAllString(doc, ""), -1) {
		spans = append(spans, m[1])
	}
	return spans
}

// commandFlags returns each (command, flag) pair a dropsim or experiments
// command line in span passes. A command's arguments end at a shell
// comment, pipe, list operator or redirection.
func commandFlags(span string) [][2]string {
	var out [][2]string
	cmd := ""
	for _, tok := range strings.Fields(span) {
		switch {
		case command.MatchString(tok):
			cmd = command.FindStringSubmatch(tok)[1]
		case strings.HasPrefix(tok, "#") || strings.ContainsAny(tok[:1], "|;&<>") || strings.HasPrefix(tok, "2>"):
			cmd = ""
		case cmd != "":
			if m := flagToken.FindStringSubmatch(tok); m != nil {
				out = append(out, [2]string{cmd, m[1]})
			}
		}
	}
	return out
}

// testOnlyAllowed names the exported internal/ objects that no non-test
// file uses and that stay anyway, each with its reason. It may only
// shrink: TestNoTestOnlyExports fails on an entry that gained a caller or
// no longer exists.
var testOnlyAllowed = map[string]string{
	"golden.Streams":            "the recorded streams, a fixture the golden tests of workload, scenario and campaign share",
	"golden.Stream.Hex":         "renders a recorded hash as the campaign's golden tests read it from a manifest",
	"golden.Stream.MatchHex":    "matches a manifest's hash against the recorded one in the campaign's golden tests",
	"dropbox.Device.Stop":       "ends a device session: tstat's idle-sweep and notify tests need the teardown, from another package",
	"netem.Network.SetCoreLoss": "injects core loss for the loss-recovery tests of netem, tcpsim and tstat",
	"simtime.Scheduler.Run":     "drains the event queue in the packet-path tests of simtime, netem, tcpsim and tlssim",
}

// TestNoTestOnlyExports keeps internal/ exported only where called: every
// exported object of an internal/ package (a package-level name, or a
// method of a package-level type) is used by some non-test file of the
// module, benchmark/ and the facade included, outside its own
// declaration. A method whose name and signature match a method of an
// interface is exempt, since it may be called through that interface: one
// the module declares or names, or one that a package it imports declares
// (io.Writer, fmt.Stringer, sort.Interface, …). The facade's own exports
// are the public API and are not checked.
func TestNoTestOnlyExports(t *testing.T) {
	m := checkModule(t)
	viaInterface := func(fn *types.Func) bool {
		for _, iface := range m.ifaces {
			for i := range iface.NumMethods() {
				if im := iface.Method(i); im.Name() == fn.Name() && types.Identical(im.Type(), fn.Type()) {
					return true
				}
			}
		}
		return false
	}
	found := map[string]bool{}
	for _, pkg := range m.pkgs {
		if !strings.HasPrefix(pkg.Path(), modulePath+"/internal/") {
			continue
		}
		for _, obj := range exportedObjects(pkg) {
			name, fn := pkg.Name()+"."+obj.Name(), (*types.Func)(nil)
			if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
				name, fn = pkg.Name()+"."+recvTypeName(f)+"."+obj.Name(), f
			}
			_, allowed := testOnlyAllowed[name]
			used := m.reads[obj] || m.writes[obj]
			found[name] = true
			switch {
			case used && allowed:
				t.Errorf("testOnlyAllowed names %s, which has a non-test caller now", name)
			case used || allowed || fn != nil && viaInterface(fn):
			default:
				t.Errorf("%s: exported %s has no caller outside _test.go files", m.fset.Position(obj.Pos()), name)
			}
		}
	}
	for name := range testOnlyAllowed {
		if !found[name] {
			t.Errorf("testOnlyAllowed names %s, which no longer exists", name)
		}
	}
}

// writeOnlyAllowed names the fields and variables that TestNoWriteOnlyState
// would flag and that stay anyway, each with the one test that needs it:
// state that non-test code writes and only tests read, and exported knobs
// that non-test code reads and only tests set. It may only shrink:
// TestNoWriteOnlyState fails on an entry it would no longer flag, or that
// no longer exists.
var writeOnlyAllowed = map[string]string{
	"experiments.TestbedResult.frames":   "the testbed's captured frames, which TestTestbedCaptureGolden reads as its pinned capture",
	"experiments.TestbedResult.messages": "the testbed's protocol messages, which TestTestbedCaptureGolden reads as its pinned capture",
	"simtime.Ticker.id":                  "the pending tick's event, which the tests' (*Ticker).Stop cancels",
	"tcpsim.Conn.retransmits":            "the loss tests' one direct observable of recovery; ROADMAP 18 counts RTOs with it",
	"netem.Network.dropped":              "TestUnknownDestinationDropped's one observable; ROADMAP 18(c)'s loss suite reads it",
	"workload.GroupMix.Heavy":            "Table 5's published Heavy share, which TestGroupMixSumsToOne checks against the remainder the generator draws; ROADMAP 3(a)'s scorecard reads it",
}

// TestNoWriteOnlyState keeps non-test code from keeping state that only
// tests read, knobs that only tests set, and fields that nothing sets:
//   - every unexported struct field and unexported package-level variable
//     of a package outside benchmark/, and every exported field of an
//     internal/ struct type, is used by some non-test file;
//   - if a non-test file writes it, one reads it too;
//   - if it is an exported field and a non-test file reads it, one writes
//     it too;
//   - if it is an unexported field and a non-test file reads it, some file
//     writes it: a non-test file, or a _test.go file of its own package,
//     where a seam a test sets (a hook, a block size) is legal. Test files
//     are matched by field name alone (see testWrites).
//
// writeOnlyAllowed names the exceptions to the middle two. The exported scan
// leaves out package golden's fixtures, the structs the facade re-exports
// by alias (the public API) and structs with json tags, which
// encoding/json reads and writes.
//
// A use is a write when it is the target of =, op=, ++ or --, the key of a
// struct literal, or x.f in x.f = append(x.f, v). A positional struct
// literal, &x.f, a pointer-method call on x.f and the selector or index
// chain of an assignment's target (f in x.f.g = v or x.f[k].g++) both
// write and read. Every other use is a read.
func TestNoWriteOnlyState(t *testing.T) {
	m := checkModule(t)
	found := map[string]bool{}
	check := func(name string, obj types.Object, exported bool, testWritten map[string]bool) {
		_, allowed := writeOnlyAllowed[name]
		found[name] = true
		read, written := m.reads[obj], m.writes[obj]
		pos := m.fset.Position(obj.Pos())
		if !read && !written {
			t.Errorf("%s: %s is used only by _test.go files, if at all", pos, name)
			return
		}
		flag := ""
		switch {
		case !read:
			flag = "is written but never read outside _test.go files"
		case exported && !written:
			flag = "is read but only _test.go files set it"
		case !written && obj.(*types.Var).IsField() && !testWritten[obj.Name()]:
			flag = "is read but no file writes it, so it always holds its zero value"
		}
		switch {
		case allowed && flag == "":
			t.Errorf("writeOnlyAllowed names %s, which the gate no longer flags: non-test code reads it, and writes it if it is exported", name)
		case allowed:
		case flag != "":
			t.Errorf("%s: %s %s", pos, name, flag)
		}
	}
	public := m.facadeTypes()
	for _, pkg := range m.pkgs {
		if strings.HasPrefix(pkg.Path()+"/", modulePath+"/benchmark/") {
			continue
		}
		testWritten := testWrites(t, pkg)
		for name, obj := range stateObjects(pkg) {
			check(name, obj, false, testWritten)
		}
		if !strings.HasPrefix(pkg.Path(), modulePath+"/internal/") || pkg.Name() == "golden" {
			continue
		}
		for name, obj := range exportedFields(pkg, public) {
			check(name, obj, true, nil)
		}
	}
	for name := range writeOnlyAllowed {
		if !found[name] {
			t.Errorf("writeOnlyAllowed names %s, which no longer exists", name)
		}
	}
}

// facadeShownAllowed names the facade exports that TestFacadeExportsShown
// would flag and that stay anyway, each with its reason. It may only
// shrink: the test fails on an entry that is shown now or no longer exists.
var facadeShownAllowed = map[string]string{}

// facadeRef is a qualified facade name in a document's code.
var facadeRef = regexp.MustCompile(`\binsidedropbox\.(\w+)(?:\.(\w+))?`)

// TestFacadeExportsShown keeps the facade (the root package, the public
// API) to what some reader of it uses. Every exported root-package name,
// and every exported method of a type the root package declares (T.M), is
//   - used by a non-test file outside the root package (cmd/, internal/cli,
//     benchmark/),
//   - used in the body of an Example function,
//   - named in a code span of README.md or EXPERIMENTS.md, as
//     insidedropbox.X or in a span that is X or starts with X(, or
//   - a type alias that a name kept by these rules exposes: in a function's
//     or variable's signature, or in a type's fields or method signatures.
//
// In reverse, every insidedropbox.X in a code span of README.md,
// EXPERIMENTS.md or PERFORMANCE.md names an exported root-package object.
func TestFacadeExportsShown(t *testing.T) {
	m := checkModule(t)
	root := m.byPath[modulePath]
	names := map[types.Object]string{}
	for _, obj := range exportedObjects(root) {
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			names[obj] = recvTypeName(fn) + "." + obj.Name()
		} else {
			names[obj] = obj.Name()
		}
	}
	for _, name := range root.Scope().Names() {
		tn, ok := root.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !tn.Exported() {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := range iface.NumExplicitMethods() {
				if fn := iface.ExplicitMethod(i); fn.Exported() {
					names[fn] = name + "." + fn.Name()
				}
			}
		}
	}
	shown := map[string]bool{}
	for id, obj := range m.info.Uses {
		if name := names[origin(obj)]; name != "" && filepath.Dir(m.fset.Position(id.Pos()).Filename) != "." {
			shown[name] = true
		}
	}
	for obj := range exampleUses(t, m) {
		if name := names[obj]; name != "" {
			shown[name] = true
		}
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "PERFORMANCE.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		shows := doc != "PERFORMANCE.md"
		for _, span := range codeSpans(string(b)) {
			for _, ref := range facadeRef.FindAllStringSubmatch(span, -1) {
				if obj := root.Scope().Lookup(ref[1]); obj == nil || !obj.Exported() {
					t.Errorf("%s: `%s` names insidedropbox.%s, which the facade does not export", doc, span, ref[1])
				}
				if shows {
					// X, and T.M (X. when the span names no second part).
					shown[ref[1]], shown[ref[1]+"."+ref[2]] = true, true
				}
			}
			for _, name := range names {
				if shows && (span == name || strings.HasPrefix(span, name+"(")) {
					shown[name] = true
				}
			}
		}
	}
	// A type alias a kept name exposes is kept, to a fixed point.
	for grew := true; grew; {
		grew = false
		exposed := map[*types.TypeName]bool{}
		for obj, name := range names {
			if shown[name] || facadeShownAllowed[name] != "" {
				exposes(obj, exposed)
			}
		}
		for obj, name := range names {
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() && !shown[name] {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok && exposed[named.Obj()] {
					shown[name], grew = true, true
				}
			}
		}
	}
	found := map[string]bool{}
	for obj, name := range names {
		found[name] = true
		_, allowed := facadeShownAllowed[name]
		switch {
		case shown[name] && allowed:
			t.Errorf("facadeShownAllowed names %s, which is shown now", name)
		case !shown[name] && !allowed:
			t.Errorf("%s: facade export %s is used by no caller outside the root package, no Example and no README.md or EXPERIMENTS.md code span",
				m.fset.Position(obj.Pos()), name)
		}
	}
	for name := range facadeShownAllowed {
		if !found[name] {
			t.Errorf("facadeShownAllowed names %s, which no longer exists", name)
		}
	}
}

// exampleUses type-checks the root package's external test files (package
// insidedropbox_test) against the module and returns the objects that the
// bodies of their Example functions use.
func exampleUses(t *testing.T, m *typedModule) map[types.Object]bool {
	names, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == modulePath+"_test" {
			files = append(files, f)
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	if _, err := conf.Check(modulePath+"_test", m.fset, files, info); err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
						used[origin(info.Uses[id])] = true
					}
					return true
				})
			}
		}
	}
	return used
}

// exposes adds to into the named types obj's type mentions: a function's
// or variable's signature, or a type's fields and exported method
// signatures.
func exposes(obj types.Object, into map[*types.TypeName]bool) {
	var walk func(types.Type)
	walk = func(typ types.Type) {
		switch typ := typ.(type) {
		case *types.Alias:
			walk(types.Unalias(typ))
		case *types.Named:
			into[typ.Obj()] = true
			for arg := range typ.TypeArgs().Types() {
				walk(arg)
			}
		case *types.Pointer:
			walk(typ.Elem())
		case *types.Slice:
			walk(typ.Elem())
		case *types.Array:
			walk(typ.Elem())
		case *types.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case *types.Chan:
			walk(typ.Elem())
		case *types.Signature:
			for v := range typ.Params().Variables() {
				walk(v.Type())
			}
			for v := range typ.Results().Variables() {
				walk(v.Type())
			}
		case *types.Struct:
			for f := range typ.Fields() {
				if f.Exported() {
					walk(f.Type())
				}
			}
		}
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		walk(obj.Type())
		return
	}
	typ := types.Unalias(tn.Type())
	walk(typ.Underlying())
	if named, ok := typ.(*types.Named); ok {
		for fn := range named.Methods() {
			if fn.Exported() {
				walk(fn.Type())
			}
		}
	}
}

const modulePath = "insidedropbox"

// typedModule is the module's non-test code, type-checked.
type typedModule struct {
	fset   *token.FileSet
	pkgs   []*types.Package      // every package of the module, in path order
	writes map[types.Object]bool // objects some non-test file writes (see accesses, and record for positional literals)
	reads  map[types.Object]bool // objects some non-test file uses otherwise, outside their own declaration
	ifaces []*types.Interface    // interfaces the module declares, names or imports
	info   *types.Info
	std    types.Importer
	byPath map[string]*types.Package
}

// moduleOnce type-checks the module once per test binary: the gates that
// read it share one ≈4–5 s check.
var moduleOnce = sync.OnceValues(loadModule)

// checkModule is the module's non-test code, type-checked.
func checkModule(t *testing.T) *typedModule {
	m, err := moduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// loadModule parses and type-checks every package of the module from its
// non-test files, standard-library imports through go/importer.
func loadModule() (*typedModule, error) {
	m := &typedModule{
		fset:   token.NewFileSet(),
		writes: map[types.Object]bool{},
		reads:  map[types.Object]bool{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		byPath: map[string]*types.Package{},
	}
	// The source importer reads the standard library through
	// build.Default. The module has no cgo, and a cgo pass fails where no C
	// toolchain serves the target (GOARCH=386), so the check reads the
	// pure-Go variants.
	build.Default.CgoEnabled = false
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if files, _ := filepath.Glob(filepath.Join(path, "*.go")); len(files) > 0 {
			_, err = m.Import(filepath.ToSlash(filepath.Join(modulePath, path)))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, path := range slices.Sorted(maps.Keys(m.byPath)) {
		m.pkgs = append(m.pkgs, m.byPath[path])
	}
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			m.ifaces = append(m.ifaces, iface)
		}
	}
	for _, tv := range m.info.Types {
		addIface(tv.Type)
	}
	for _, obj := range m.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			addIface(tn.Type())
		}
	}
	for _, pkg := range m.pkgs {
		for _, imp := range pkg.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}
	return m, nil
}

// Import type-checks a module package from its non-test files, once, and
// hands any other path to the standard-library importer.
func (m *typedModule) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path+"/", modulePath+"/")
	if !ok {
		return m.std.Import(path)
	}
	if pkg := m.byPath[path]; pkg != nil {
		return pkg, nil
	}
	names, err := filepath.Glob(filepath.Join(".", dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.byPath[path] = pkg
	for _, f := range files {
		m.record(f)
	}
	return pkg, nil
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportedObjects returns pkg's exported package-level objects and the
// exported methods of its package-level named types, interfaces aside.
func exportedObjects(pkg *types.Package) []types.Object {
	var objs []types.Object
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if obj.Exported() {
			objs = append(objs, obj)
		}
		named, ok := obj.Type().(*types.Named)
		if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
			continue
		}
		for i := range named.NumMethods() {
			if m := named.Method(i); m.Exported() {
				objs = append(objs, m)
			}
		}
	}
	return objs
}

// recvTypeName is the name of the type a method is declared on.
func recvTypeName(fn *types.Func) string {
	typ := fn.Signature().Recv().Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	return typ.(*types.Named).Obj().Name()
}

// access is how a non-test file uses an identifier: read, write or both.
type access uint8

const (
	read access = 1 << iota
	write
)

// record notes which objects f reads and which it writes (see accesses),
// outside their own declaration. A positional struct literal writes every
// field of its struct.
func (m *typedModule) record(f *ast.File) {
	uses := accesses(f, m.info)
	for _, decl := range f.Decls {
		var self types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = m.info.Defs[fd.Name]
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := origin(m.info.Uses[n]); obj != nil && obj != self {
					use := uses[n]
					if use == 0 {
						use = read
					}
					m.writes[obj] = m.writes[obj] || use&write != 0
					m.reads[obj] = m.reads[obj] || use&read != 0
				}
			case *ast.CompositeLit:
				st, ok := m.info.Types[n].Type.Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := range st.NumFields() {
						field := origin(st.Field(i))
						m.writes[field], m.reads[field] = true, true
					}
				}
			}
			return true
		})
	}
}

// accesses returns how f uses the identifiers it does not only read. The
// target of an =, op= or := assignment or of ++ or -- is written, where
// x.f[k] = v writes f, and so are the keys of a struct literal and x.f in
// x.f = append(x.f, v). The fields of the target's selector or index chain
// (f in x.f.g = v or x.f[k].g++), of &x.f and of x.f.M() for a
// pointer-method M are written and read.
func accesses(f *ast.File, info *types.Info) map[*ast.Ident]access {
	uses := map[*ast.Ident]access{}
	var mark func(ast.Expr, access)
	mark = func(e ast.Expr, use access) {
		switch e := e.(type) {
		case *ast.Ident:
			uses[e] |= use
		case *ast.SelectorExpr:
			uses[e.Sel] |= use
			mark(e.X, read|write)
		case *ast.IndexExpr:
			mark(e.X, use)
		case *ast.ParenExpr:
			mark(e.X, use)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				mark(lhs, write)
				if len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN && isAppendTo(n.Rhs[i], lhs, info) {
					mark(n.Rhs[i].(*ast.CallExpr).Args[0], write)
				}
			}
		case *ast.IncDecStmt:
			mark(n.X, write)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X, read|write)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			_, ptrRecv := sel.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer)
			_, ptrX := sel.Recv().Underlying().(*types.Pointer)
			if ptrRecv && !ptrX {
				mark(n.X, read|write)
			}
		case *ast.CompositeLit:
			if _, ok := info.Types[n].Type.Underlying().(*types.Struct); ok {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						mark(kv.Key, write)
					}
				}
			}
		}
		return true
	})
	return uses
}

// testWrites returns the names that pkg's own _test.go files (not its
// external _test package's, which cannot reach an unexported field) write:
// every name in the selector or index chain of the target of an
// assignment, of ++ or -- or of &, and the keys of composite literals.
// The files are parsed, not type-checked, so a name stands for every
// field and variable of that name.
func testWrites(t *testing.T, pkg *types.Package) map[string]bool {
	names := map[string]bool{}
	var mark func(ast.Expr)
	mark = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			names[e.Name] = true
		case *ast.SelectorExpr:
			names[e.Sel.Name] = true
			mark(e.X)
		case *ast.IndexExpr:
			mark(e.X)
		case *ast.ParenExpr:
			mark(e.X)
		case *ast.StarExpr:
			mark(e.X)
		}
	}
	files, err := filepath.Glob(filepath.Join("."+strings.TrimPrefix(pkg.Path(), modulePath), "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name != pkg.Name() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			case *ast.KeyValueExpr:
				mark(n.Key)
			}
			return true
		})
	}
	return names
}

// isAppendTo reports whether e is append(target, ...).
func isAppendTo(e, target ast.Expr, info *types.Info) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[fn].(*types.Builtin)
	return ok && b.Name() == "append" && types.ExprString(call.Args[0]) == types.ExprString(target)
}

// stateObjects returns pkg's unexported package-level variables and the
// unexported, named fields of its package-level struct types, by name:
// pkg.var or pkg.Type.field.
func stateObjects(pkg *types.Package) map[string]types.Object {
	objs := map[string]types.Object{}
	for _, name := range pkg.Scope().Names() {
		switch obj := pkg.Scope().Lookup(name).(type) {
		case *types.Var:
			if !obj.Exported() && obj.Name() != "_" {
				objs[pkg.Name()+"."+name] = obj
			}
		case *types.TypeName:
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); !f.Exported() && !f.Embedded() && f.Name() != "_" {
					objs[pkg.Name()+"."+name+"."+f.Name()] = f
				}
			}
		}
	}
	return objs
}

// exportedFields returns the exported, named fields of pkg's package-level
// struct types, by name (pkg.Type.Field), leaving out the types in public
// and any struct with a json tag.
func exportedFields(pkg *types.Package, public map[*types.TypeName]bool) map[string]types.Object {
	objs := map[string]types.Object{}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || public[tn] {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok || jsonTagged(st) {
			continue
		}
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() && !f.Embedded() {
				objs[pkg.Name()+"."+name+"."+f.Name()] = f
			}
		}
	}
	return objs
}

// jsonTagged reports whether any field of st carries a json tag.
func jsonTagged(st *types.Struct) bool {
	for i := range st.NumFields() {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// facadeTypes returns the named types the root package re-exports by
// alias.
func (m *typedModule) facadeTypes() map[*types.TypeName]bool {
	public := map[*types.TypeName]bool{}
	root := m.byPath[modulePath]
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[named.Obj()] = true
			}
		}
	}
	return public
}
