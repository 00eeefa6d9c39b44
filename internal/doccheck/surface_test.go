package doccheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testAccessor is the doc-comment paragraph that exempts an exported
// identifier in internal/ from TestInternalSurface. The paragraph
// names the other packages whose tests use the identifier.
const testAccessor = "Test accessor:"

// stdlibMethods are the method names the standard library calls
// through interfaces the checked code need not name: fmt calls Error
// and String, errors.Is calls Unwrap, encoding/json calls MarshalJSON
// and net/http calls ServeHTTP. Add a name here only when the gate
// flags a method the standard library calls.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "MarshalJSON": true, "ServeHTTP": true,
}

// TestInternalSurface keeps code that only tests call out of the
// production files under internal/. It type-checks every non-test
// package of the module and of the perfbench module (which is edited
// only with the benchmark, so it counts as a caller), then fails on
// each of these, declared in a non-test file under internal/, that no
// non-test code references: a package-level function, type, variable
// or constant that is exported; an exported method of an exported
// type; an unexported package-level function. A reference from the
// identifier's own declaration, or from a method of the type it
// names, does not count, and neither does one from code that is
// itself unreferenced, so test-only code is found to a fixpoint. A
// method is referenced when its type is and it implements an
// interface that declares it: one in the checked code, or one of the
// standard library's conventions (stdlibMethods). An identifier whose
// doc comment has a paragraph starting "Test accessor:" is exempt; it
// fails instead if non-test code does reference it.
func TestInternalSurface(t *testing.T) {
	s := loadSurface(t, "../..")
	flagged, stale := s.unreferenced()
	for _, o := range flagged {
		t.Errorf("%s: %s: only tests reference it; move it into a _test.go file, delete it, "+
			"or, if other packages' tests use it, start a doc paragraph %q naming them", s.pos(o), s.name(o), testAccessor)
	}
	for _, o := range stale {
		t.Errorf("%s: %s: non-test code references it; drop its %q paragraph", s.pos(o), s.name(o), testAccessor)
	}
}

// surface is the type-checked non-test code of the repository.
type surface struct {
	fset  *token.FileSet
	root  string // absolute repository root
	decls []*decl
	// tracked holds the objects the gate checks, true for those
	// marked as test accessors.
	tracked map[types.Object]bool
	// ifaces are the interface types of the checked code.
	ifaces []*types.Interface
}

// decl is one top-level declaration (a function, a method, or one
// spec of a const, var or type declaration) and the objects it
// references.
type decl struct {
	owners []types.Object  // the objects it declares
	recv   *types.TypeName // a method's receiver type
	refs   []types.Object  // the objects it references
}

// listedPackage is the part of `go list -json` the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// loadSurface lists the packages of both modules with one
// `go list -deps -export` run from perfbench/ (whose go.mod replaces
// tcphack with the repository root), type-checks the repository's
// packages from source, and imports the standard library from the
// compiler's export data, which keeps the check fast under -race.
func loadSurface(t *testing.T, root string) *surface {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", ".", "tcphack/...")
	cmd.Dir = filepath.Join(root, "perfbench")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var listed []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			listed = append(listed, p)
		}
	}

	s := &surface{fset: token.NewFileSet(), root: root, tracked: map[types.Object]bool{}}
	std := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	// go list -deps prints every package after its dependencies.
	for _, p := range listed {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := conf.Check(p.ImportPath, s.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		s.add(files, info, strings.HasPrefix(p.ImportPath, "tcphack/internal/"))
	}
	return s
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// add records one checked package: its interfaces, its tracked
// objects when it is under internal/, and every top-level
// declaration with the references it makes.
func (s *surface) add(files []*ast.File, info *types.Info, internal bool) {
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			s.ifaces = append(s.ifaces, it)
		}
	}
	for _, o := range info.Defs {
		if tn, ok := o.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.ifaces = append(s.ifaces, it)
			}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name]
				dc := &decl{owners: []types.Object{fn}}
				if d.Recv != nil {
					dc.recv = recvType(fn)
				}
				if internal && gated(fn, dc.recv) {
					s.tracked[fn] = marked(d.Doc)
				}
				s.decls = append(s.decls, dc.walk(d, info))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					dc := &decl{}
					var names []*ast.Ident
					doc := d.Doc
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{sp.Name}
						if sp.Doc != nil {
							doc = sp.Doc
						}
					case *ast.ValueSpec:
						names = sp.Names
						if sp.Doc != nil {
							doc = sp.Doc
						}
					default:
						continue
					}
					for _, n := range names {
						o := info.Defs[n]
						dc.owners = append(dc.owners, o)
						if internal && n.IsExported() {
							s.tracked[o] = marked(doc)
						}
					}
					s.decls = append(s.decls, dc.walk(spec, info))
				}
			}
		}
	}
}

// gated reports whether the gate checks function or method fn.
func gated(fn types.Object, recv *types.TypeName) bool {
	if recv == nil {
		return fn.Name() != "init" && fn.Name() != "main"
	}
	return fn.Exported() && recv.Exported()
}

// walk collects the objects that node references.
func (d *decl) walk(node ast.Node, info *types.Info) *decl {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := origin(info.Uses[id]); o != nil {
				d.refs = append(d.refs, o)
			}
		}
		return true
	})
	return d
}

// origin maps an instantiated generic function, method or field to
// its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// recvType returns the named type a method is declared on.
func recvType(fn types.Object) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// marked reports whether a doc comment has a test-accessor paragraph.
func marked(doc *ast.CommentGroup) bool {
	for _, para := range strings.Split(doc.Text(), "\n\n") {
		if strings.HasPrefix(para, testAccessor) {
			return true
		}
	}
	return false
}

// unreferenced runs the reachability fixpoint. It returns the tracked
// objects that no reached declaration references, leaving out the
// methods of a type it returns, and the marked objects that a reached
// declaration references.
func (s *surface) unreferenced() (flagged, stale []types.Object) {
	// methods lists, per named type, the tracked methods that
	// implement an interface: they are reached once their type is.
	methods := map[*types.TypeName][]types.Object{}
	for _, d := range s.decls {
		if _, ok := s.tracked[d.owners[0]]; ok && d.recv != nil && s.implements(d.owners[0], d.recv) {
			methods[d.recv] = append(methods[d.recv], d.owners[0])
		}
	}
	reached := map[types.Object]bool{}
	changed := false
	reach := func(o types.Object) {
		if reached[o] {
			return
		}
		reached[o], changed = true, true
		if tn, ok := o.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				reached[m] = true
			}
		}
	}
	for o, isMarked := range s.tracked {
		if isMarked {
			reach(o)
		}
	}
	used := map[types.Object]bool{} // referenced by a reached declaration
	for changed = true; changed; {
		changed = false
		for _, d := range s.decls {
			if !s.isReached(d, reached) {
				continue
			}
			for _, r := range d.refs {
				if _, ok := s.tracked[r]; ok && !d.self(r) {
					used[r] = true
					reach(r)
				}
			}
		}
	}
	for o, isMarked := range s.tracked {
		switch {
		case isMarked && used[o]:
			stale = append(stale, o)
		case !reached[o] && !(isMethod(o) && !reached[recvType(o)]):
			flagged = append(flagged, o)
		}
	}
	s.sort(flagged)
	s.sort(stale)
	return flagged, stale
}

// isReached reports whether a declaration is reached: it declares an
// untracked object or a reached one.
func (s *surface) isReached(d *decl, reached map[types.Object]bool) bool {
	for _, o := range d.owners {
		if _, ok := s.tracked[o]; !ok || reached[o] {
			return true
		}
	}
	return false
}

// self reports whether r is declared by d, or is the type whose
// method d declares.
func (d *decl) self(r types.Object) bool {
	if d.recv == r {
		return true
	}
	for _, o := range d.owners {
		if o == r {
			return true
		}
	}
	return false
}

// implements reports whether method m of type tn is one that an
// interface declares and tn or *tn implements.
func (s *surface) implements(m types.Object, tn *types.TypeName) bool {
	if stdlibMethods[m.Name()] {
		return true
	}
	t := tn.Type()
	for _, it := range s.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// sort orders objects by file and line.
func (s *surface) sort(objs []types.Object) {
	sort.Slice(objs, func(i, j int) bool {
		a, b := s.fset.Position(objs[i].Pos()), s.fset.Position(objs[j].Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
}

func (s *surface) pos(o types.Object) string {
	p := s.fset.Position(o.Pos())
	rel, err := filepath.Rel(s.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

func (s *surface) name(o types.Object) string {
	if isMethod(o) {
		return fmt.Sprintf("%s.%s.%s", o.Pkg().Name(), recvType(o).Name(), o.Name())
	}
	return o.Pkg().Name() + "." + o.Name()
}

func isMethod(o types.Object) bool {
	fn, ok := o.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}
