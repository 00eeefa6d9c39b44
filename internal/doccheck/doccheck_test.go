// Package doccheck is the repository's documentation gate: a
// stdlib-only lint (no revive/staticcheck dependency) that fails when
// an exported identifier in the audited packages lacks a doc comment,
// when the root facade exports what nothing uses (TestFacadeSurface),
// or when internal/ keeps code that only tests reach
// (TestInternalSurface). It runs as an ordinary test, so
// `go test ./...` — locally and in CI — enforces the godoc contract
// established by the documentation pass.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// auditedPackages lists the package directories (relative to the
// repository root) whose exported identifiers must all carry doc
// comments. Grow this list as packages get their documentation pass.
var auditedPackages = []string{
	"internal/scenario",
	"internal/campaign",
	"internal/results",
	"internal/mac",
	"internal/hack",
	"internal/channel",
	"internal/phy",
	"internal/sim",
	"internal/node",
	"internal/dist",
	"internal/trace",
	".", // the public tcphack package
}

// TestExportedIdentifiersDocumented parses each audited package and
// reports every exported declaration without a doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	root := "../.."
	for _, pkg := range auditedPackages {
		dir := filepath.Join(root, pkg)
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, p := range pkgs {
			if strings.HasSuffix(p.Name, "_test") {
				continue
			}
			for fname, f := range p.Files {
				for _, missing := range undocumented(f) {
					pos := fset.Position(missing.pos)
					t.Errorf("%s:%d: exported %s %s has no doc comment",
						filepath.ToSlash(filepath.Join(pkg, filepath.Base(fname))), pos.Line,
						missing.kind, missing.name)
				}
			}
		}
	}
}

type finding struct {
	kind string
	name string
	pos  token.Pos
}

// undocumented walks one file's top-level declarations and returns
// exported identifiers lacking doc comments. Grouped declarations
// (`var (...)`, `const (...)`, multi-spec type blocks) accept either a
// group comment or per-spec comments — the enumeration/table idiom.
// Conventional fmt.Stringer implementations (`String() string`, no
// parameters) are exempt: their contract is the interface's.
func undocumented(f *ast.File) []finding {
	var out []finding
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc.Text() == "" &&
				!methodOfUnexported(d) && !isStringer(d) {
				out = append(out, finding{"func", funcName(d), d.Name.Pos()})
			}
		case *ast.GenDecl:
			groupDoc := d.Doc.Text() != ""
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc.Text() == "" && s.Comment.Text() == "" && !groupDoc {
						out = append(out, finding{"type", s.Name.Name, s.Name.Pos()})
					}
				case *ast.ValueSpec:
					if groupDoc || s.Doc.Text() != "" || s.Comment.Text() != "" {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, finding{strings.ToLower(d.Tok.String()), n.Name, n.Pos()})
						}
					}
				}
			}
		}
	}
	return out
}

// isStringer reports whether d is a conventional String() string
// method.
func isStringer(d *ast.FuncDecl) bool {
	if d.Recv == nil || d.Name.Name != "String" {
		return false
	}
	ft := d.Type
	if ft.Params != nil && len(ft.Params.List) > 0 {
		return false
	}
	if ft.Results == nil || len(ft.Results.List) != 1 {
		return false
	}
	id, ok := ft.Results.List[0].Type.(*ast.Ident)
	return ok && id.Name == "string"
}

// methodOfUnexported reports whether d is a method on an unexported
// receiver type (its docs are not part of the package's public godoc).
func methodOfUnexported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.Ident:
			return !v.IsExported()
		default:
			return false
		}
	}
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return fmt.Sprintf("(%s).%s", exprString(d.Recv.List[0].Type), d.Name.Name)
}

func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.Ident:
		return v.Name
	default:
		return fmt.Sprintf("%T", e)
	}
}
