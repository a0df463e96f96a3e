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
// bare one (`stepFacts`, `TestFloors`, `Ctx`), declared at package level
// by the module or a test file, or a package, builtin, keyword or
// directory. Spans with
// spaces, underscores or punctuation (commands, JSON fields) are not
// checked.
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
				t.Errorf("%s:%d: `%s` names nothing in the tree", filepath.Base(doc), i+1, span)
			}
		}
	}
}

// resolver answers what a documentation span may name.
type resolver struct {
	pkgs  map[string][]*types.Package  // by package name: the module's and what they import
	types map[string][]*types.TypeName // the module's named types, by name
	names map[string]bool              // package-level names, test functions, directories
	files []string                     // every file of the tree, slash-separated from the root
}

func newResolver(t *testing.T) *resolver {
	r := &resolver{pkgs: map[string][]*types.Package{}, types: map[string][]*types.TypeName{}, names: map[string]bool{}}
	for _, c := range loadModule(t).done {
		for _, p := range append(c.pkg.Imports(), c.pkg) {
			r.pkgs[p.Name()] = append(r.pkgs[p.Name()], p)
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			r.names[name] = true
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				r.types[name] = append(r.types[name], tn)
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
			r.names[d.Name()] = true
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
				r.names[fn.Name.Name] = true
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
		return r.names[span] || r.pkgs[span] != nil || types.Universe.Lookup(span) != nil || token.Lookup(span).IsKeyword()
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
