package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wordRE splits text into Go-identifier-shaped words.
var wordRE = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// TestFacadeSurface keeps the root tcphack package from re-exporting
// what nothing uses. An exported root identifier passes when a Go file
// under cmd/ or examples/ references it as tcphack.<Name>, when
// README.md or the package doc names it, or when the declaration or
// doc comment of an export that passes names it (a type that a kept
// signature needs callers to name or build). The last rule is applied
// until nothing changes; every identifier left over fails the test.
func TestFacadeSurface(t *testing.T) {
	root := "../.."
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, root, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["tcphack"]
	if pkg == nil {
		t.Fatal("root package tcphack not found")
	}

	// exports maps each exported root identifier to the words of its
	// declaration and doc comment.
	exports := map[string][]string{}
	passed := map[string]bool{}
	for fname, f := range pkg.Files {
		src, err := os.ReadFile(fname)
		if err != nil {
			t.Fatal(err)
		}
		text := func(n ast.Node) string {
			return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
		}
		for _, w := range wordRE.FindAllString(f.Doc.Text(), -1) {
			passed[w] = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					exports[d.Name.Name] = wordRE.FindAllString(d.Doc.Text()+text(d.Type), -1)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					var doc *ast.CommentGroup
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names, doc = []*ast.Ident{s.Name}, s.Doc
					case *ast.ValueSpec:
						names, doc = s.Names, s.Doc
					}
					words := wordRE.FindAllString(d.Doc.Text()+doc.Text()+text(spec), -1)
					for _, n := range names {
						if n.IsExported() {
							exports[n.Name] = words
						}
					}
				}
			}
		}
	}

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wordRE.FindAllString(string(readme), -1) {
		passed[w] = true
	}
	for _, dir := range []string{"cmd", "examples"} {
		for name := range facadeRefs(t, filepath.Join(root, dir)) {
			passed[name] = true
		}
	}

	for changed := true; changed; {
		changed = false
		for name, words := range exports {
			if !passed[name] {
				continue
			}
			for _, w := range words {
				if _, ok := exports[w]; ok && !passed[w] {
					passed[w], changed = true, true
				}
			}
		}
	}

	var unused []string
	for name := range exports {
		if !passed[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("tcphack.%s: no cmd/ or examples/ file references it, README.md and the package doc do not name it, and no kept export's declaration or doc names it; delete it", name)
	}
}

// facadeRefs returns the selectors of every tcphack.<Name> reference
// in the Go files under dir, under whatever name each file imports
// the root package.
func facadeRefs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	refs := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "tcphack" {
				local = "tcphack"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					refs[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}
