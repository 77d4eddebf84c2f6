package insidedropbox

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
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
