// Package scripts holds repository checks that read the source tree
// rather than run the program.
//
//	go test -run '^TestTestOnlyExports$' ./scripts
package scripts

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const module = "github.com/flexer-sched/flexer"

// stdlibCalled are the names of interface methods the standard library
// calls without naming them (fmt, errors, net/http, encoding/json, io):
// an export of one of these names is never reported.
var stdlibCalled = []string{"String", "Error", "Unwrap", "ServeHTTP", "MarshalJSON", "UnmarshalJSON", "Write", "WriteHeader", "Flush"}

// TestTestOnlyExports lists the exported functions and methods of the
// internal packages that no non-test file outside their own package
// uses: exports only tests (or the package itself) need, which should
// be unexported or moved into a _test.go file. Uses are matched by
// type, not by name: every non-test package of the module and of the
// nested bench/ module (the benchmark is a real caller) is type-checked
// from source. A method also counts as used when an interface it
// satisfies is declared in another package, or has that method called
// from another package. The root package is the library's public API
// and is not surveyed; types are not surveyed either.
func TestTestOnlyExports(t *testing.T) {
	ld := loadModule(t)
	fset := ld.fset

	// used holds what some package uses of another's; called, the
	// interface methods some package calls on another's interface.
	used := map[types.Object]bool{}
	var called []*types.Func
	for _, p := range ld.done {
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg() == p.pkg {
				continue
			}
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, fn)
			}
		}
	}
	var ifaces []*types.Named // interfaces the module declares
	for _, p := range ld.done {
		for _, name := range p.pkg.Scope().Names() {
			if n, ok := p.pkg.Scope().Lookup(name).Type().(*types.Named); ok && types.IsInterface(n) {
				ifaces = append(ifaces, n)
			}
		}
	}
	// satisfies reports whether a value or a pointer of t implements
	// the interface iface.
	satisfies := func(t types.Type, iface types.Type) bool {
		it := iface.Underlying().(*types.Interface)
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	needed := func(fn *types.Func) bool {
		if used[fn] || slices.Contains(stdlibCalled, fn.Name()) {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		for _, m := range called {
			if m.Name() == fn.Name() && m.Pkg() != fn.Pkg() && satisfies(t, m.Type().(*types.Signature).Recv().Type()) {
				return true
			}
		}
		for _, n := range ifaces {
			if n.Obj().Pkg() != fn.Pkg() && hasMethod(n, fn.Name()) && satisfies(t, n) {
				return true
			}
		}
		return false
	}

	var out []string
	for _, p := range ld.done {
		if !strings.HasPrefix(p.pkg.Path(), module+"/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			var fns []*types.Func
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				fns = append(fns, obj)
			case *types.TypeName:
				if n, ok := obj.Type().(*types.Named); ok && !types.IsInterface(n) {
					for i := range n.NumMethods() {
						fns = append(fns, n.Method(i))
					}
				}
			}
			for _, fn := range fns {
				if fn.Exported() && !needed(fn) {
					pos := fset.Position(fn.Pos())
					out = append(out, filepath.ToSlash(pos.Filename)+":"+strconv.Itoa(pos.Line)+": "+strings.ReplaceAll(fn.FullName(), module+"/internal/", ""))
				}
			}
		}
	}
	slices.Sort(out)
	for _, s := range slices.Compact(out) {
		t.Errorf("%s: only tests or its own package use it; unexport it or move it into a _test.go file", strings.TrimPrefix(s, "../"))
	}
}

// loadModule type-checks every package of the module and of bench/
// from its non-test files.
func loadModule(t *testing.T) *loader {
	ctx := build.Default
	ctx.CgoEnabled = false // the standard library's pure-Go files type-check without cgo
	fset := token.NewFileSet()
	ld := &loader{ctx: &ctx, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	err := filepath.WalkDir("..", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != ".." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		_, err = ld.Import(module + strings.TrimPrefix(filepath.ToSlash(dir), ".."))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

func hasMethod(n *types.Named, name string) bool {
	it := n.Underlying().(*types.Interface)
	for i := range it.NumMethods() {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// checked is one type-checked package of the module and what its
// identifiers name.
type checked struct {
	pkg  *types.Package
	info *types.Info
}

// loader type-checks the packages of the module, and of bench/ (whose
// import paths extend the module's), from their non-test files,
// importing the standard library through the source importer.
type loader struct {
	ctx  *build.Context
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package // by import path; nil: no Go files
	done []checked
}

func (ld *loader) Import(path string) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return ld.std.Import(path)
	}
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	dir := ".." + strings.TrimPrefix(path, module)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := ld.ctx.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	ld.pkgs[path] = nil
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: ld}).Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = pkg
	ld.done = append(ld.done, checked{pkg, info})
	return pkg, nil
}
