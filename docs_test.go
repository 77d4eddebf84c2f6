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

// writeOnlyAllowed names the unexported fields and variables that non-test
// code writes, that only tests read, and that stay anyway, each with its
// reason. It may only shrink: TestNoWriteOnlyState fails on an entry that
// gained a read or no longer exists.
var writeOnlyAllowed = map[string]string{
	"experiments.TestbedResult.frames":   "the testbed's captured frames, which TestTestbedCaptureGolden reads as its pinned capture",
	"experiments.TestbedResult.messages": "the testbed's protocol messages, which TestTestbedCaptureGolden reads as its pinned capture",
	"simtime.Ticker.id":                  "the pending tick's event, which the tests' (*Ticker).Stop cancels",
	"tcpsim.Conn.retransmits":            "the loss tests' one direct observable of recovery; ROADMAP 18 counts RTOs with it",
	"netem.Network.dropped":              "TestUnknownDestinationDropped's one observable; ROADMAP 18(c)'s loss suite reads it",
}

// TestNoWriteOnlyState keeps non-test code from keeping state that only
// tests read: every unexported struct field and unexported package-level
// variable of a non-test package outside benchmark/ that some non-test
// file writes is also read by some non-test file, unless
// writeOnlyAllowed names it. A use is a write when it is the target of
// =, op=, ++ or --, also through an index (x.f[k] = v), or the key of a
// struct literal; every other use is a read. The known blind spot: in
// x.f = append(x.f, v) the append reads x.f, so a slice that only grows
// passes.
func TestNoWriteOnlyState(t *testing.T) {
	m := checkModule(t)
	found := map[string]bool{}
	for _, pkg := range m.pkgs {
		if strings.HasPrefix(pkg.Path()+"/", modulePath+"/benchmark/") {
			continue
		}
		for name, obj := range stateObjects(pkg) {
			_, allowed := writeOnlyAllowed[name]
			found[name] = true
			switch {
			case allowed && m.reads[obj]:
				t.Errorf("writeOnlyAllowed names %s, which a non-test file reads now", name)
			case m.writes[obj] && !m.reads[obj] && !allowed:
				t.Errorf("%s: %s is written but never read outside _test.go files", m.fset.Position(obj.Pos()), name)
			}
		}
	}
	for name := range writeOnlyAllowed {
		if !found[name] {
			t.Errorf("writeOnlyAllowed names %s, which no longer exists", name)
		}
	}
}

const modulePath = "insidedropbox"

// typedModule is the module's non-test code, type-checked.
type typedModule struct {
	fset   *token.FileSet
	pkgs   []*types.Package      // every package of the module, in path order
	writes map[types.Object]bool // objects some non-test file assigns (see writeTargets)
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
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
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
		targets := writeTargets(f, m.info)
		for _, decl := range f.Decls {
			var self types.Object
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = m.info.Defs[fd.Name]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := origin(m.info.Uses[id]); obj != nil && obj != self {
						if targets[id] {
							m.writes[obj] = true
						} else {
							m.reads[obj] = true
						}
					}
				}
				return true
			})
		}
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

// writeTargets returns the identifiers f assigns to: the target of an =,
// op= or := assignment or of ++ or --, where x.f[k] = v assigns f, and the
// keys of a struct literal.
func writeTargets(f *ast.File, info *types.Info) map[*ast.Ident]bool {
	targets := map[*ast.Ident]bool{}
	var mark func(ast.Expr)
	mark = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			targets[e] = true
		case *ast.SelectorExpr:
			targets[e.Sel] = true
		case *ast.IndexExpr:
			mark(e.X)
		case *ast.ParenExpr:
			mark(e.X)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CompositeLit:
			if _, ok := info.Types[n].Type.Underlying().(*types.Struct); ok {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						mark(kv.Key)
					}
				}
			}
		}
		return true
	})
	return targets
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
