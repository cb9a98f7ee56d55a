package policyanon_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
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
	"time"
)

// reachAllowFile lists the exported names under internal/ that may stay
// without a non-test referent, one "pkg.[Recv.]Name — reason" per line.
const reachAllowFile = "testdata/reachability.txt"

// TestReachability holds every exported package-level func, type, const
// and var, and every exported method, declared in a non-test file under
// internal/ to having a referent in a non-test file of the module other
// than its own declaration — or to an allow-list line saying why it stays.
// Names are resolved with go/types, so a same-named identifier in another
// package or on another receiver does not count. A method that satisfies
// an interface declared in the module or in a standard-library package the
// module imports counts as reached (fmt.Stringer, http.ResponseWriter, an
// engine interface), whether its receiver is exported or not. Struct
// fields are exempt: the wire types are read by encoding/json.
func TestReachability(t *testing.T) {
	start := time.Now()
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	unreached := m.unreached()
	allow, err := readAllowList(reachAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unreached {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s has no non-test referent: delete it, or add %q to %s", name, name+" — <reason>", reachAllowFile)
		}
		delete(allow, name)
	}
	stale := make([]string, 0, len(allow))
	for name := range allow {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s: stale line, the name is reached or gone; remove it", name)
	}
	t.Logf("%d packages, %d exported names checked, %d allow-listed, in %v",
		len(m.pkgs), m.checked, len(unreached), time.Since(start).Round(time.Millisecond))
}

// readAllowList parses the allow-list into name → reason; a line without
// a reason is an error.
func readAllowList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want \"pkg.[Recv.]Name — reason\", got %q", path, n, line)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// module is every package of the module, parsed without its test files and
// type-checked from source; standard-library imports come from the
// toolchain's export data, located by one "go list -export" call.
type module struct {
	path    string // module path from go.mod
	fset    *token.FileSet
	pkgs    map[string]*modPkg // by import path
	std     types.Importer
	checked int // exported names considered by unreached
}

type modPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
}

func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*modPkg{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			m.path = strings.TrimSpace(p)
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("go.mod: no module line")
	}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return m.parseDir(root, dir)
	})
	if err != nil {
		return nil, err
	}
	if err := m.locateStd(); err != nil {
		return nil, err
	}
	for _, p := range m.pkgs {
		if _, err := m.check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// parseDir parses the non-test files of one directory that the default
// build context selects.
func (m *module) parseDir(root, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return err
	}
	p := &modPkg{path: m.path}
	if rel != "." {
		p.path += "/" + filepath.ToSlash(rel)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) > 0 {
		m.pkgs[p.path] = p
	}
	return nil
}

// locateStd finds the export data of every package the module imports
// from outside itself, and their dependencies, in one go list call (the
// default importer would run one per package).
func (m *module) locateStd() error {
	seen := map[string]bool{}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if _, own := m.pkgs[path]; !own && !seen[path] {
					seen[path] = true
					args = append(args, path)
				}
			}
		}
	}
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export: %w: %s", err, stderr.String())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	return nil
}

// Import resolves module packages to their source-checked types and
// everything else to export data.
func (m *module) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return m.check(p)
	}
	return m.std.Import(path)
}

func (m *module) check(p *modPkg) (*types.Package, error) {
	if p.types != nil || p.err != nil {
		return p.types, p.err
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	p.types, p.err = conf.Check(p.path, m.fset, p.files, p.info)
	return p.types, p.err
}

// unreached returns the exported names under internal/ that no non-test
// file refers to outside their own declaration, as sorted
// "pkg.[Recv.]Name" keys with pkg relative to internal/.
func (m *module) unreached() []string {
	internal := m.path + "/internal/"
	// Each candidate's own declaration (for a type: its spec and its
	// methods) is where a reference does not count.
	own := map[types.Object][]posRange{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, internal) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					r := posRange{d.Pos(), d.End()}
					own[obj] = append(own[obj], r)
					if recv := receiverType(p, d); recv != nil {
						own[recv] = append(own[recv], r)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							own[obj] = append(own[obj], posRange{s.Pos(), s.End()})
						case *ast.ValueSpec:
							for _, n := range s.Names {
								obj := p.info.Defs[n]
								own[obj] = append(own[obj], posRange{s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if reached[obj] {
				continue
			}
			inside := false
			for _, r := range own[obj] {
				if r.contains(id.Pos()) {
					inside = true
					break
				}
			}
			if !inside {
				reached[obj] = true
			}
		}
	}
	m.markInterfaceMethods(reached)

	var out []string
	add := func(p *modPkg, obj types.Object, recv string) {
		m.checked++
		if !reached[obj] {
			out = append(out, strings.TrimPrefix(p.path, internal)+"."+recv+obj.Name())
		}
	}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, internal) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				add(p, obj, "")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					add(p, fn, name+".")
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && obj.Exported() {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if fn := iface.ExplicitMethod(i); fn.Exported() {
						add(p, fn, name+".")
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// markInterfaceMethods marks as reached every method through which a
// module type satisfies an interface: one declared at package level in the
// module or in an imported standard-library package, or written inline in
// module code (a type assertion's interface{ Unwrap() error }).
func (m *module) markInterfaceMethods(reached map[types.Object]bool) {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || iface.NumMethods() == 0 {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	var named []*types.Named
	for _, p := range m.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		tried := map[*types.Interface]bool{}
		for i := 0; i < mset.Len(); i++ {
			for _, iface := range byMethod[mset.At(i).Obj().Name()] {
				if tried[iface] {
					continue
				}
				tried[iface] = true
				// *T's method set holds T's, so one check covers both.
				if !types.Implements(ptr, iface) {
					continue
				}
				for j := 0; j < iface.NumMethods(); j++ {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, iface.Method(j).Pkg(), iface.Method(j).Name())
					if obj != nil {
						reached[origin(obj)] = true
					}
				}
			}
		}
	}
}

// receiverType is the package-level type a method declaration belongs to.
func receiverType(p *modPkg, d *ast.FuncDecl) types.Object {
	if d.Recv == nil {
		return nil
	}
	fn, ok := p.info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type posRange struct{ lo, hi token.Pos }

func (r posRange) contains(p token.Pos) bool { return r.lo <= p && p < r.hi }
