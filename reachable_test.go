package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keep lists declarations no root reaches that stay anyway, each with
// its reason. Nothing else belongs here: a name only tests use is
// deleted, or given a caller in an example.
var keep = map[string]string{
	"gsi.WithClock": "the Environment's clock seam: tests drive every validity window through it",
}

// TestReachable is `make reachable` at declaration level. Every function
// and method, and every exported package-level type, constant and
// variable, that a non-test file of this module declares is reached from
// a root. The roots are main and init, every package-level variable's
// initialiser, and — in each package a file under bench/ imports — the
// names spelled under bench/ (the benchmark is its own module, so a name
// match stands in for a type-checked reference there).
//
// A reached declaration reaches whatever its signature, body or type
// spells. A method is reached once its receiver type is, and either a
// reached body names it or it satisfies — itself or promoted into a
// reached type — an interface that non-test code or an imported package
// declares. Unwrap, Is and As count as satisfied: the standard library
// calls them through unexported interfaces. Each finding prints as
// file:line pkg.Name — delete it, or use it from an example.
func TestReachable(t *testing.T) {
	r := newReachability(loadModule(t))
	r.rootBench(t, "bench")
	r.run()

	var findings []string
	for _, obj := range r.order {
		if r.marked[obj] {
			continue
		}
		name := obj.Pkg().Name() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if named := receiverNamed(fn.Type().(*types.Signature).Recv()); named != nil {
				name = obj.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
			}
		} else if !obj.Exported() || obj.Parent() != obj.Pkg().Scope() {
			continue
		}
		if _, kept := keep[name]; kept {
			continue
		}
		pos := r.m.fset.Position(obj.Pos())
		findings = append(findings, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, name))
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("%s: no root reaches it", f)
	}
	if len(keep) > 1 {
		t.Errorf("keep has %d entries; it holds the Environment's clock seam and nothing else", len(keep))
	}
}

// declSite is where an object is declared: the node whose names the
// object reaches once it is reached, and the package that resolves them.
type declSite struct {
	p    *modulePkg
	node ast.Node
}

// reachability is one mark pass over the module's declarations.
type reachability struct {
	m      *module
	decls  map[types.Object]declSite
	order  []types.Object // every declaration, in load order
	marked map[types.Object]bool
	named  map[*types.Func]bool // methods a reached body or bench/ names
	queue  []types.Object       // marked, not yet scanned

	ifaces    []*types.Interface
	satisfied map[*types.Named]map[string]bool
}

// newReachability declares every object the module defines and marks
// the roots inside it: main, init, and what variable initialisers name.
func newReachability(m *module) *reachability {
	r := &reachability{
		m:         m,
		decls:     make(map[types.Object]declSite),
		marked:    make(map[types.Object]bool),
		named:     make(map[*types.Func]bool),
		satisfied: make(map[*types.Named]map[string]bool),
	}
	seen := make(map[*types.Interface]bool)
	addIface := func(typ types.Type) {
		if typ == nil {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
			seen[it] = true
			r.ifaces = append(r.ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	// Interfaces the packages we import export (fmt.Stringer, io.Closer,
	// sort.Interface, …): their callers live in the standard library.
	for _, imp := range m.imported {
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
	}

	var initialisers []declSite
	for _, p := range m.pkgs {
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					r.declare(p, obj, d)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						r.mark(obj)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							r.declare(p, p.info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								r.declare(p, p.info.Defs[id], s)
							}
							if d.Tok == token.VAR {
								initialisers = append(initialisers, declSite{p, s})
							}
						}
					}
				}
			}
		}
	}
	for _, d := range initialisers {
		r.scan(d)
	}
	return r
}

func (r *reachability) declare(p *modulePkg, obj types.Object, node ast.Node) {
	// internal/israce is test-only by design: a build-tagged constant the
	// alloc-ceiling tests read to skip themselves under -race.
	if obj == nil || obj.Name() == "_" || p.path == "repro/internal/israce" {
		return
	}
	r.decls[obj] = declSite{p, node}
	r.order = append(r.order, obj)
}

// scan marks every module object the node's identifiers resolve to.
func (r *reachability) scan(d declSite) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := d.p.info.Uses[id]; obj != nil && obj.Pkg() != nil && r.m.byPath[obj.Pkg().Path()] != nil {
				r.mark(origin(obj))
			}
		}
		return true
	})
}

// mark reaches obj; a method it only names, pending its receiver type.
func (r *reachability) mark(obj types.Object) {
	if r.marked[obj] {
		return
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		r.named[fn] = true
		r.tryMethod(fn)
		return
	}
	r.marked[obj] = true
	r.queue = append(r.queue, obj)
}

// tryMethod reaches a named method whose receiver type is reached.
func (r *reachability) tryMethod(fn *types.Func) {
	named := receiverNamed(fn.Type().(*types.Signature).Recv())
	if r.named[fn] && !r.marked[fn] && named != nil && r.marked[named.Obj()] {
		r.marked[fn] = true
		r.queue = append(r.queue, fn)
	}
}

// run scans what is marked until nothing new is: a reached type offers
// its methods, its own and those promoted into it, and names each one
// that satisfies an interface; a reached declaration marks what it
// spells.
func (r *reachability) run() {
	for len(r.queue) > 0 {
		obj := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		switch o := obj.(type) {
		case *types.TypeName:
			if named, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
				ms := types.NewMethodSet(types.NewPointer(named))
				for i := 0; i < ms.Len(); i++ {
					fn := ms.At(i).Obj().(*types.Func)
					if r.satisfies(named, fn.Name()) {
						r.named[fn] = true
					}
					r.tryMethod(fn)
				}
			}
		case *types.Const:
			// A constant of an implicitly repeated spec spells no type.
			if named, ok := o.Type().(*types.Named); ok && r.m.byPath[named.Obj().Pkg().Path()] != nil {
				r.mark(named.Obj())
			}
		}
		if d, ok := r.decls[obj]; ok {
			r.scan(d)
		}
	}
}

// satisfies reports whether named (or a pointer to it) implements an
// interface that declares a method called method.
func (r *reachability) satisfies(named *types.Named, method string) bool {
	switch method {
	case "Unwrap", "Is", "As":
		return true
	}
	set, ok := r.satisfied[named]
	if !ok {
		set = make(map[string]bool)
		ptr := types.NewPointer(named)
		for _, it := range r.ifaces {
			if types.Implements(named, it) || types.Implements(ptr, it) {
				for i := 0; i < it.NumMethods(); i++ {
					set[it.Method(i).Name()] = true
				}
			}
		}
		r.satisfied[named] = set
	}
	return set[method]
}

// rootBench marks, in each package a file under dir imports, the
// objects whose names those files spell, and names the methods so
// spelled on the types those packages declare or alias.
func (r *reachability) rootBench(t *testing.T, dir string) {
	names, imports := spelledUnder(t, dir)
	for path := range imports {
		p := r.m.byPath[path]
		if p == nil {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if names[name] {
				r.mark(obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := types.Unalias(tn.Type()).(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); names[fn.Name()] {
					r.mark(fn)
				}
			}
		}
	}
}

// origin maps an instantiated or embedded-promoted object back to the
// one its declaration defined.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverNamed returns the named type a receiver has, through one
// pointer.
func receiverNamed(recv *types.Var) *types.Named {
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// spelledUnder returns every identifier spelled in a .go file under
// dir, and every import path those files name.
func spelledUnder(t *testing.T, dir string) (names, imports map[string]bool) {
	names = make(map[string]bool)
	imports = make(map[string]bool)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, src, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok == token.IDENT {
				names[lit] = true
			}
		}
	})
	if err != nil {
		t.Fatalf("scan %s: %v", dir, err)
	}
	return names, imports
}

// modulePkg is one package of this module, type-checked from its
// non-test files only.
type modulePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module type-checks the non-test half of every package outside bench/,
// importing this module's own packages from source as well so that one
// object identity holds across them.
type module struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     []*modulePkg
	byPath   map[string]*modulePkg
	imported map[string]*types.Package // non-module packages imported directly
}

func loadModule(t *testing.T) *module {
	fset := token.NewFileSet()
	m := &module{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		byPath:   make(map[string]*modulePkg),
		imported: make(map[string]*types.Package),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") || path == "bench" {
			return filepath.SkipDir
		}
		ip := "repro"
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		if _, err := m.Import(ip); err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				return nil
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("type-check module: %v", err)
	}
	return m
}

// Import implements types.Importer.
func (m *module) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		pkg, err := m.std.Import(path)
		if err == nil {
			m.imported[path] = pkg
		}
		return pkg, err
	}
	if p, ok := m.byPath[path]; ok {
		return p.types, nil
	}
	dir := "." + strings.TrimPrefix(path, "repro")
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &modulePkg{path: path, info: &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: m}
	if p.types, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.byPath[path] = p
	m.pkgs = append(m.pkgs, p)
	return p.types, nil
}
