package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// orphanAllowed lists exported functions ("pkg.Func") and methods
// ("pkg.Type.Method") of the internal packages that no non-test file
// references and that stay anyway; each entry names the tests that need
// it or the standard-library interface it satisfies.
var orphanAllowed = map[string]string{
	// Test hooks and helpers, exported because suites outside their
	// package use them too: eachDispatch and the worker-count suites in
	// tensor, TestEngineForwardSIMDPortableIdentical and the alloc pins in
	// infer, the arena tests in nn, the NaN guards of data, models and nn.
	"tensor.SetSIMD":       "dispatch bit-identity suites",
	"tensor.SetMaxWorkers": "worker-count invariance suites and serial-path alloc pins",
	"tensor.Tensor.HasNaN": "NaN guards in the data, models and nn suites",

	// Whole files that only their own tests exercise; each is deleted
	// together with those tests in a change of its own.
	"core.BudgetPolicy.Apply": "budget_test.go (TestBudgetPolicy*)",
	"optim.NewAdam":           "adam_test.go (TestAdam*)",

	// Called by the standard library through an interface, never by name.
	"tensor.Tensor.String": "fmt.Stringer",
}

// TestNoOrphanExports fails, by name, for every exported package-level
// function and every exported method of an internal/ package that no
// non-test file of the root module or of bench/ references: a kernel
// generation or helper that lost its last production caller must be
// deleted (or allow-listed above), not left exported. A function counts as
// referenced by a bare identifier inside its package or a selector on its
// package's import elsewhere; a method, by name, through any selector.
func TestNoOrphanExports(t *testing.T) {
	type file struct {
		ast *ast.File
		own string // the internal package the file belongs to, or ""
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := ""
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			own = f.Name.Name
		}
		files = append(files, file{f, own})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// declared["pkg.Name"] / declared["pkg.Type.Method"] = the declaring
	// identifier.
	declared := map[string]*ast.Ident{}
	for _, f := range files {
		if f.own == "" {
			continue
		}
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				declared[f.own+"."+fn.Name.Name] = fn.Name
			} else {
				declared[f.own+"."+recvType(fn.Recv.List[0].Type)+"."+fn.Name.Name] = fn.Name
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no exported functions: run from the repository root")
	}

	used := map[string]bool{}  // functions, as "pkg.Name"
	named := map[string]bool{} // selector names: a method is referenced by name
	for _, f := range files {
		// Inside the declaring package a bare identifier is a reference;
		// elsewhere it is a selector on the file's name for the import.
		local := map[string]string{} // file-local import name → internal package
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			rest, ok := strings.CutPrefix(ip, "repro/internal/")
			if !ok {
				continue
			}
			name := rest
			if im.Name != nil {
				name = im.Name.Name
			}
			local[name] = rest
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				named[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if pkg, ok := local[id.Name]; ok {
						used[pkg+"."+x.Sel.Name] = true
					}
				}
				// x.Sel names a field, method or another package's member,
				// never a function of the file's own package.
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if f.own != "" && declared[f.own+"."+x.Name] != x {
					used[f.own+"."+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var orphans []string
	for name := range declared {
		ref := used[name]
		if parts := strings.Split(name, "."); len(parts) == 3 {
			ref = named[parts[2]]
		}
		if !ref && orphanAllowed[name] == "" {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("%s is exported but no non-test file references it: delete it or allow-list it with the test that needs it", name)
	}
	for name := range orphanAllowed {
		if declared[name] == nil {
			t.Errorf("allow-list entry %s names no exported function or method", name)
		}
	}
}

// recvType is the type name of a method receiver: T for T, *T, T[P] and
// *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
