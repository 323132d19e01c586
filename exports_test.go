package photoloop_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// exportAllowlist names the exports under internal/ that no non-test code
// uses but that stay, each with the reason it stays. A key is the
// package's directory under internal/, then the type for a method or a
// struct field, then the name.
var exportAllowlist = map[string]string{
	"arch.Arch.DomainGaps":       "the lint the preset, spec, baseline and albireo tests run over every architecture they build",
	"arch.Fixed":                 "builds the rigid spatial factors of the tests' hand-written architectures, beside Choice",
	"exp.Fig2Result.Utilization": "the root facade re-exports the type as photoloop.Fig2Result, whose callers read it",
	"mapping.FactorSplits":       "the exhaustive reference mapper the search is tested against enumerates with it",
	"model.Result.UsageOf":       "the refsim and albireo tests read one level's counts through it",
	"refsim.Run":                 "the brute-force loop-nest oracle the model's counting rules are tested against (docs/MODELING.md §IV)",
	"store.Store.Recovered":      "the store fuzz and shard tests check through it how many torn tail bytes Open truncated",
}

// TestInternalExportsHaveProductionCallers keeps the packages' APIs to
// what the program uses. It type-checks every non-test package of this
// module and of perfbench/ from source, and fails on each exported func,
// method or struct field declared under internal/ (internal/testutil
// aside) that no non-test code uses — resolved by object, so a same-named
// identifier elsewhere hides nothing — unless it is on exportAllowlist.
// A method also counts as used when its type satisfies an interface that
// has it: one of this program's, or one the standard library declares or
// asserts in a function body (fmt's Stringer, errors.Is's Unwrap,
// rand.Source). A struct field counts as used only where it is read: a
// selector on the left of an assignment or of ++/--, and a composite
// literal's key, write it. A field with an encoding tag counts as used,
// since the encoder reads it.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	l := newSourceLoader()
	var ours []*sourcePkg
	err := filepath.WalkDir(".", func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		importPath := "photoloop"
		if path != "." {
			importPath += "/" + filepath.ToSlash(path)
		}
		p, err := l.load(importPath, path)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		ours = append(ours, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	for _, p := range ours {
		written := fieldWrites(p.files)
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && written[id] {
				continue
			}
			used[origin(obj)] = true
		}
	}
	type decl struct {
		key string
		obj types.Object
	}
	var decls []decl
	for _, p := range ours {
		pkgDir, ok := strings.CutPrefix(p.pkg.Path(), "photoloop/internal/")
		if !ok || pkgDir == "testutil" || strings.HasPrefix(pkgDir, "testutil/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					decls = append(decls, decl{pkgDir + "." + name, obj})
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for m := range named.Methods() {
					if m.Exported() && !l.satisfiesInterface(named, m.Name()) {
						decls = append(decls, decl{pkgDir + "." + name + "." + m.Name(), m})
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := range st.NumFields() {
					f := st.Field(i)
					if f.Exported() && !f.Embedded() && !encoded(st.Tag(i)) {
						decls = append(decls, decl{pkgDir + "." + name + "." + f.Name(), f})
					}
				}
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		switch {
		case !used[d.obj] && exportAllowlist[d.key] == "":
			t.Errorf("%s: %s is an export only tests use: delete it, or add it to exportAllowlist with the reason it stays", l.fset.Position(d.obj.Pos()), d.key)
		case used[d.obj] && exportAllowlist[d.key] != "":
			t.Errorf("exportAllowlist names %s, which non-test code now uses: drop the entry", d.key)
		}
	}
	for key := range exportAllowlist {
		if !seen[key] {
			t.Errorf("exportAllowlist names %s, which internal/ no longer declares as an export the lint checks", key)
		}
	}
}

// origin maps an object of an instantiated generic type or func to its
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

// fieldWrites returns the identifiers that name a field only to write it:
// the selector of an assignment's left side or of an increment or
// decrement, and a composite literal's key.
func fieldWrites(files []*ast.File) map[*ast.Ident]bool {
	written := map[*ast.Ident]bool{}
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					written[id] = true
				}
			}
			return true
		})
	}
	return written
}

// encoded reports whether a struct tag names a key for an encoder.
func encoded(tag string) bool {
	for _, key := range []string{"json", "xml", "yaml"} {
		if v, ok := reflect.StructTag(tag).Lookup(key); ok && v != "-" {
			return true
		}
	}
	return false
}

// sourcePkg is one type-checked package.
type sourcePkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// sourceLoader type-checks packages from source: this module's by
// directory, the standard library's from GOROOT (without cgo, and
// without function bodies). It records every interface it meets.
type sourceLoader struct {
	fset   *token.FileSet
	ctxt   build.Context
	byPath map[string]*sourcePkg
	ifaces []*types.Interface
}

func newSourceLoader() *sourceLoader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	l := &sourceLoader{fset: token.NewFileSet(), ctxt: ctxt, byPath: map[string]*sourcePkg{}}
	l.ifaces = append(l.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return l
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *sourceLoader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir := ""
	if rel, ok := strings.CutPrefix(path, "photoloop"); ok && (rel == "" || rel[0] == '/') {
		dir = "." + rel
	} else {
		bp, err := l.ctxt.Import(path, srcDir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		path, dir = bp.ImportPath, bp.Dir
	}
	p, err := l.load(path, dir)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load type-checks the package at dir under the given import path, once.
func (l *sourceLoader) load(path, dir string) (*sourcePkg, error) {
	if p := l.byPath[path]; p != nil {
		return p, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	std := bp.Goroot
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p := &sourcePkg{info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}, files: files}
	conf := types.Config{Importer: l, IgnoreFuncBodies: std}
	if p.pkg, err = conf.Check(path, l.fset, files, p.info); err != nil {
		return nil, err
	}
	l.byPath[path] = p
	for _, tv := range p.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			l.ifaces = append(l.ifaces, it)
		}
	}
	for _, name := range p.pkg.Scope().Names() {
		if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				l.ifaces = append(l.ifaces, it)
			}
		}
	}
	if std {
		// The standard library's function bodies are not checked, so the
		// interfaces they assert to (errors.Is's Unwrap) are resolved
		// here, where they name only package-level types.
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok && it.Methods.NumFields() > 0 {
					info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
					if types.CheckExpr(l.fset, p.pkg, token.NoPos, it, info) == nil {
						l.ifaces = append(l.ifaces, info.Types[it].Type.(*types.Interface))
					}
				}
				return true
			})
		}
	}
	return p, nil
}

// satisfiesInterface reports whether named (or a pointer to it) satisfies
// a loaded interface that has a method of the given name.
func (l *sourceLoader) satisfiesInterface(named *types.Named, method string) bool {
	for _, it := range l.ifaces {
		has := false
		for m := range it.Methods() {
			has = has || m.Name() == method
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
