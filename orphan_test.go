package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
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
	"tensor.Tensor.At":     "element reads in the tensor, nn and infer suites",
	"tensor.Tensor.Set":    "element writes in the tensor and infer suites",
	"quant.State.Scale":    "TestScaleZeroPoint (the r = S(q − Z) form of a grid)",

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
// deleted (or allow-listed above), not left exported. The tree is
// type-checked, so a reference is a use of the function or method object
// itself — a call, a method value or a method expression — and a field or
// package member that shares a method's name does not count. A call
// through an interface (or a type parameter's constraint) counts for every
// method of that name whose type implements the interface.
func TestNoOrphanExports(t *testing.T) {
	pkgs := typeCheckTree(t)

	// declared["pkg.Name"] / declared["pkg.Type.Method"]: the exported
	// functions and methods of the internal packages.
	declared := map[string]*types.Func{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					declared[p.types.Name()+"."+name] = obj
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						declared[p.types.Name()+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no exported functions: run from the repository root")
	}

	used := map[*types.Func]bool{}                  // functions and concrete methods
	viaInterface := map[string][]*types.Interface{} // method name → interfaces it was called through
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					viaInterface[fn.Name()] = append(viaInterface[fn.Name()], iface)
					continue
				}
			}
			used[fn] = true
		}
	}
	referenced := func(fn *types.Func) bool {
		if used[fn] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for _, iface := range viaInterface[fn.Name()] {
			if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
				return true
			}
		}
		return false
	}

	var orphans []string
	for name, fn := range declared {
		if !referenced(fn) && orphanAllowed[name] == "" {
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

// checkedPkg is one type-checked package of the tree: its directory
// relative to the repository root and the type information of its
// non-test files.
type checkedPkg struct {
	dir   string
	types *types.Package
	info  *types.Info
}

// typeCheckTree type-checks the non-test files of every package in the
// repository — the root module and the bench/ module, which imports it —
// for the host's GOOS/GOARCH. Import paths under "repro/" resolve to
// directories of this tree; everything else is the standard library,
// checked from its source.
func typeCheckTree(t *testing.T) []*checkedPkg {
	t.Helper()
	fset := token.NewFileSet()
	byDir := map[string]*checkedPkg{}
	std := importer.ForCompiler(fset, "source", nil)
	var load func(dir string) (*checkedPkg, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path != "repro" && !strings.HasPrefix(path, "repro/") {
			return std.Import(path)
		}
		p, err := load(filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")))
		if err != nil {
			return nil, err
		}
		return p.types, nil
	})
	load = func(dir string) (*checkedPkg, error) {
		if dir == "" {
			dir = "."
		}
		if p, ok := byDir[dir]; ok {
			return p, nil
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		path := "repro"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		p := &checkedPkg{dir: filepath.ToSlash(dir), types: tp, info: info}
		byDir[dir] = p
		return p, nil
	}

	var pkgs []*checkedPkg
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		p, err := load(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
