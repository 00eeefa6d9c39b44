package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the CI definition whose go test lines TestCITestPatterns
// checks, relative to the repository root.
const ciWorkflow = ".github/workflows/ci.yml"

// TestCITestPatterns keeps CI from naming tests that do not exist. go
// test passes when a -run, -bench or -fuzz pattern matches nothing ("no
// tests to run"), so a renamed or deleted test would silently drop out
// of the CI step that names it. For each go test command in the
// workflow, every |-alternative of each pattern's first /-segment must
// match a function of the kind that flag selects in the command's
// packages: Test or Fuzz for -run, Benchmark for -bench, Fuzz for
// -fuzz. A -run pattern of ^$ selects nothing on purpose.
func TestCITestPatterns(t *testing.T) {
	root := "../.."
	src, err := os.ReadFile(filepath.Join(root, ciWorkflow))
	if err != nil {
		t.Fatal(err)
	}
	cmds := goTestCommands(string(src))
	if len(cmds) == 0 {
		t.Fatalf("%s: no go test commands found", ciWorkflow)
	}
	funcs := map[string][]string{} // package dir → its test-file functions
	for _, c := range cmds {
		var names []string
		for _, pkg := range c.pkgs {
			for _, dir := range packageDirs(t, root, pkg) {
				if _, ok := funcs[dir]; !ok {
					funcs[dir] = testFuncs(t, dir)
				}
				names = append(names, funcs[dir]...)
			}
		}
		for _, m := range unmatchedPatterns(c, names) {
			t.Errorf("%s: %q names no %s function in %v (go test would run nothing for it):\n\t%s",
				ciWorkflow, m.alt, strings.Join(m.kinds, " or "), c.pkgs, c.line)
		}
	}
}

// goTestCmd is one go test invocation: its -run/-bench/-fuzz patterns
// by flag, and its package arguments.
type goTestCmd struct {
	line     string
	patterns map[string]string
	pkgs     []string
}

// goTestValueFlags are the go test flags that take a value; the rest
// of the dash arguments are booleans.
var goTestValueFlags = map[string]bool{
	"-run": true, "-bench": true, "-fuzz": true, "-benchtime": true, "-fuzztime": true,
	"-count": true, "-timeout": true, "-cpu": true, "-parallel": true, "-skip": true,
	"-coverprofile": true, "-cpuprofile": true, "-memprofile": true, "-o": true,
}

// goTestCommands finds every go test command in a workflow's text,
// outside comments and step names. It joins backslash-continued lines,
// splits shell words with single and double quotes, and ends a command
// at a shell operator.
func goTestCommands(text string) []goTestCmd {
	text = strings.ReplaceAll(text, "\\\n", " ")
	var cmds []goTestCmd
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "- ")
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "name:") {
			continue
		}
		words := shellWords(strings.TrimPrefix(line, "run:"))
		for i := 0; i+1 < len(words); i++ {
			if words[i] != "go" || words[i+1] != "test" {
				continue
			}
			c := goTestCmd{line: line, patterns: map[string]string{}}
			for j := i + 2; j < len(words); j++ {
				w := words[j]
				if w == "|" || w == "&&" || w == "||" || w == ";" || strings.HasPrefix(w, ">") {
					break
				}
				switch {
				case goTestValueFlags[w] && j+1 < len(words):
					if w == "-run" || w == "-bench" || w == "-fuzz" {
						c.patterns[w] = words[j+1]
					}
					j++
				case strings.HasPrefix(w, "-"):
				default:
					c.pkgs = append(c.pkgs, w)
				}
			}
			if len(c.pkgs) == 0 {
				c.pkgs = []string{"."}
			}
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// shellWordRE matches one shell word of the quoting CI uses: a single-
// or double-quoted string, or a run of unquoted non-blanks.
var shellWordRE = regexp.MustCompile(`'[^']*'|"[^"]*"|[^\s'"]+`)

// shellWords splits s into words, unquoted.
func shellWords(s string) []string {
	words := shellWordRE.FindAllString(s, -1)
	for i, w := range words {
		words[i] = strings.Trim(w, `'"`)
	}
	return words
}

// patternMiss is an alternative that matches no function of its kinds.
type patternMiss struct {
	alt   string
	kinds []string
}

// unmatchedPatterns returns the alternatives of c's patterns that match
// none of names, each checked against the function kinds its flag
// selects.
func unmatchedPatterns(c goTestCmd, names []string) []patternMiss {
	kindsOf := map[string][]string{
		"-run":   {"Test", "Fuzz"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	var misses []patternMiss
	for _, flag := range []string{"-run", "-bench", "-fuzz"} {
		pat, ok := c.patterns[flag]
		if !ok || pat == "^$" {
			continue
		}
		for _, alt := range topLevelSplit(topLevelSplit(pat, '/')[0], '|') {
			re, err := regexp.Compile(alt)
			if err != nil {
				misses = append(misses, patternMiss{alt: alt + " (" + err.Error() + ")", kinds: kindsOf[flag]})
				continue
			}
			found := false
			for _, n := range names {
				if hasKind(n, kindsOf[flag]) && re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				misses = append(misses, patternMiss{alt: alt, kinds: kindsOf[flag]})
			}
		}
	}
	return misses
}

// hasKind reports whether name is a test function of one of the kinds.
func hasKind(name string, kinds []string) bool {
	for _, k := range kinds {
		if strings.HasPrefix(name, k) {
			return true
		}
	}
	return false
}

// topLevelSplit splits a regexp at sep outside brackets and
// parentheses, as go test splits a pattern into levels at '/'.
func topLevelSplit(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// packageDirs resolves a go test package argument, relative to root,
// to directories: "./..." patterns walk the tree below, skipping
// testdata, hidden directories and nested modules, as go test does.
func packageDirs(t *testing.T, root, pkg string) []string {
	t.Helper()
	base, all := strings.CutSuffix(pkg, "/...")
	if pkg == "..." {
		base, all = ".", true
	}
	dir := filepath.Join(root, filepath.FromSlash(base))
	if !all {
		return []string{dir}
	}
	var dirs []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// testFuncs returns the names of the top-level functions declared in
// dir's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// TestCITestPatternsCatchesMisses feeds the checker commands whose
// patterns name missing functions, including one alternative of
// several and a -bench pattern that matches only a test.
func TestCITestPatternsCatchesMisses(t *testing.T) {
	names := []string{"TestA", "TestB", "FuzzC", "BenchmarkD"}
	for _, tc := range []struct {
		yml  string
		want []string
	}{
		{"run: go test -run 'TestA|TestB' -v ./x", nil},
		{"run: go test -run 'TestA|TestGone' -v ./x", []string{"TestGone"}},
		{"  go test -run '^$' -fuzz '^FuzzC$' -fuzztime 10s ./x", nil},
		{"  go test -run '^$' -fuzz '^FuzzGone$' -fuzztime 10s ./x", []string{"^FuzzGone$"}},
		{"  go test -run '^$' -bench '^BenchmarkD$/^n=1$' \\\n    -benchtime 1x . | tee b.txt", nil},
		{"  go test -run '^$' -bench '^TestA$' .", []string{"^TestA$"}},
		{"run: go test -race ./...", nil},
		{"- name: go test (race)\n  run: go test -race ./...", nil},
	} {
		cmds := goTestCommands(tc.yml)
		if len(cmds) != 1 {
			t.Fatalf("%q: parsed %d go test commands, want 1", tc.yml, len(cmds))
		}
		var got []string
		for _, m := range unmatchedPatterns(cmds[0], names) {
			got = append(got, m.alt)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%q: unmatched %v, want %v", tc.yml, got, tc.want)
		}
	}
}
