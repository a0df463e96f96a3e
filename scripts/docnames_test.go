package scripts

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	fileName = regexp.MustCompile(`^[\w./-]+\.(go|md|json|txt)$`)
	goName   = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)*$`)
)

// TestArchitectureNamesExist fails on every code span of
// docs/ARCHITECTURE.md that names what the tree does not have, so the
// map cannot point at code that moved or went: a file (`sched.go`,
// `spm/alg2_oracle_test.go`), which some path of the tree ends in; a
// qualified Go name (`sched.Schedule`, `Grid.Readers`), a package or a
// module type followed by fields and methods, resolved by type; or a
// bare one (`setWalk`, `TestFloors`, `Ctx`), declared at package level
// by the module or a test file and no method or field of a module type,
// or a package, builtin, keyword or directory. A bare span that is both
// (`run`: spm's type and engine's method) is ambiguous and fails; write
// it `Type.Method` or `pkg.Name`. Spans with spaces, underscores or
// punctuation (commands, JSON fields) are not checked.
func TestArchitectureNamesExist(t *testing.T) {
	const doc = "../docs/ARCHITECTURE.md"
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	r := newResolver(t)
	inFence := false
	for i, ln := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(strings.TrimSpace(ln), "```") {
			inFence = !inFence
		}
		for _, m := range codeSpan.FindAllStringSubmatch(ln, -1) {
			if span := m[1]; !inFence && !r.exists(span) {
				t.Errorf("%s:%d: `%s` names nothing in the tree, or a method or field too (write Type.Method or pkg.Name)", filepath.Base(doc), i+1, span)
			}
		}
	}
}

// TestResolverQualifiesBareMembers: a bare span that names a
// package-level declaration and a method or field as well fails, and
// passes qualified either way; a bare name that is only a declaration
// passes.
func TestResolverQualifiesBareMembers(t *testing.T) {
	r := newResolver(t)
	for span, want := range map[string]bool{
		"run": false, "engine.run": true, "spm.run": true,
		"stepFacts": false, "engine.stepFacts": true, "sched.stepFacts": true,
		"Budget": false, "search.Budget": true, "Options.Budget": true,
		"setWalk": true, "ScheduleInto": true, "TestFloors": true, "noSuchName": false,
	} {
		if got := r.exists(span); got != want {
			t.Errorf("exists(%q) = %v, want %v", span, got, want)
		}
	}
}

// resolver answers what a documentation span may name.
type resolver struct {
	pkgs    map[string][]*types.Package  // by package name: the module's and what they import
	types   map[string][]*types.TypeName // the module's named types, by name
	names   map[string]bool              // package-level names and test functions
	members map[string]bool              // the module's methods and non-embedded fields
	dirs    map[string]bool              // the tree's directory names
	files   []string                     // every file of the tree, slash-separated from the root
}

func newResolver(t *testing.T) *resolver {
	r := &resolver{pkgs: map[string][]*types.Package{}, types: map[string][]*types.TypeName{},
		names: map[string]bool{}, members: map[string]bool{}, dirs: map[string]bool{}}
	for _, c := range loadModule(t).done {
		for _, p := range append(c.pkg.Imports(), c.pkg) {
			r.pkgs[p.Name()] = append(r.pkgs[p.Name()], p)
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			r.names[name] = true
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				r.types[name] = append(r.types[name], tn)
				r.addMembers(tn.Type())
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir():
			r.dirs[d.Name()] = true
			return nil
		}
		r.files = append(r.files, strings.TrimPrefix(filepath.ToSlash(path), "../"))
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Recv == nil {
					r.names[fn.Name.Name] = true
				} else {
					r.members[fn.Name.Name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// exists reports whether span names something of the tree or no name.
func (r *resolver) exists(span string) bool {
	if fileName.MatchString(span) {
		for _, f := range r.files {
			if f == span || strings.HasSuffix(f, "/"+span) {
				return true
			}
		}
		return false
	}
	if !goName.MatchString(span) {
		return true
	}
	parts := strings.Split(span, ".")
	if len(parts) == 1 {
		if r.names[span] {
			return !r.members[span]
		}
		return r.dirs[span] || r.pkgs[span] != nil || types.Universe.Lookup(span) != nil || token.Lookup(span).IsKeyword()
	}
	for _, p := range r.pkgs[parts[0]] {
		if obj := p.Scope().Lookup(parts[1]); obj != nil && member(obj.Type(), p, parts[2:]) {
			return true
		}
	}
	for _, tn := range r.types[parts[0]] {
		if member(tn.Type(), tn.Pkg(), parts[1:]) {
			return true
		}
	}
	return false
}

// addMembers records the methods of t and the fields and methods of what
// it is defined as.
func (r *resolver) addMembers(t types.Type) {
	if n, ok := t.(*types.Named); ok {
		for i := range n.NumMethods() {
			r.members[n.Method(i).Name()] = true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			if f := u.Field(i); !f.Embedded() {
				r.members[f.Name()] = true
			}
		}
	case *types.Interface:
		for i := range u.NumExplicitMethods() {
			r.members[u.ExplicitMethod(i).Name()] = true
		}
	}
}

// member reports whether path is a chain of fields and methods of t,
// unexported ones of pkg included.
func member(t types.Type, pkg *types.Package, path []string) bool {
	for _, name := range path {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		if obj == nil {
			return false
		}
		t = obj.Type()
	}
	return true
}
