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

// orphanAllowed lists exported functions of the guarded packages that no
// non-test file references and that stay anyway; each entry names the
// tests that need the function.
var orphanAllowed = map[string]string{
	// Test hooks, exported because suites outside internal/tensor use
	// them too: eachDispatch and the worker-count suites in tensor,
	// TestEngineForwardSIMDPortableIdentical and the alloc pins in infer,
	// the arena tests in nn.
	"tensor.SetSIMD":       "dispatch bit-identity suites",
	"tensor.SetMaxWorkers": "worker-count invariance suites and serial-path alloc pins",
}

// TestNoOrphanExports fails, by name, for every exported package-level
// function of internal/tensor or internal/infer that no non-test file of
// the root module or of bench/ references outside its own declaration: a
// kernel generation that lost its last production caller must be deleted
// (or allow-listed above as a test reference), not left exported.
func TestNoOrphanExports(t *testing.T) {
	guarded := map[string]string{ // directory → package name
		"internal/tensor": "tensor",
		"internal/infer":  "infer",
	}
	type file struct {
		ast *ast.File
		own string // the guarded package the file belongs to, or ""
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
		files = append(files, file{f, guarded[filepath.ToSlash(filepath.Dir(path))]})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// declared["pkg.Name"] = the declaring identifier.
	declared := map[string]*ast.Ident{}
	for _, f := range files {
		if f.own == "" {
			continue
		}
		for _, decl := range f.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				declared[f.own+"."+fn.Name.Name] = fn.Name
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no exported functions: run from the repository root")
	}

	used := map[string]bool{}
	for _, f := range files {
		// Inside the declaring package a bare identifier is a reference;
		// elsewhere it is a selector on the file's name for the import.
		local := map[string]string{} // file-local import name → guarded package
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			pkg, ok := guarded[strings.TrimPrefix(ip, "repro/")]
			if !ok {
				continue
			}
			name := pkg
			if im.Name != nil {
				name = im.Name.Name
			}
			local[name] = pkg
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
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
		if !used[name] && orphanAllowed[name] == "" {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("%s is exported but no non-test file references it: delete it or allow-list it with the test that needs it", name)
	}
	for name := range orphanAllowed {
		if declared[name] == nil {
			t.Errorf("allow-list entry %s names no exported function", name)
		}
	}
}
