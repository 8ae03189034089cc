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
	"strings"
	"testing"
)

// referenceKeep lists exported internal identifiers that only tests call
// and that stay anyway: reference implementations a named test compares
// the product against. Nothing else belongs here — a convenience only
// tests use is deleted, not listed.
var referenceKeep = map[string]string{}

// TestNoTestOnlyExports is `make reachable` at symbol level: every
// exported function, method, type, constant and variable declared in a
// non-test file under internal/ is referenced by some non-test file of
// this module (outside its own declaration) or named by a file under
// bench/. Out of scope: methods that satisfy an interface non-test code
// can see (they are called through it), and methods of types pkg/gsi
// re-exports by alias (facade surface). Each finding prints as
// file:line package.Name — what to delete.
func TestNoTestOnlyExports(t *testing.T) {
	m := loadModule(t)

	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	seenIface := make(map[*types.Interface]bool)
	addIface := func(typ types.Type) {
		if typ == nil {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				// A function naming itself, or a method naming its
				// receiver type, is not a caller of either.
				var self, recvType types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
					if recv := self.Type().(*types.Signature).Recv(); recv != nil {
						if named := receiverNamed(recv.Type()); named != nil {
							recvType = named.Obj()
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil && obj != self && obj != recvType {
							used[origin(obj)] = true
						}
					}
					return true
				})
			}
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
	}
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

	facade := make(map[*types.TypeName]bool)
	if gsi := m.byPath["repro/pkg/gsi"]; gsi != nil {
		scope := gsi.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					facade[named.Obj()] = true
				}
			}
		}
	}

	benchNames := identifiersUnder(t, "bench")

	var findings []string
	for _, p := range m.pkgs {
		// internal/israce is test-only by design: a build-tagged constant
		// the alloc-ceiling tests read to skip themselves under -race.
		if !strings.HasPrefix(p.path, "repro/internal/") || p.path == "repro/internal/israce" {
			continue
		}
		for id, obj := range p.info.Defs {
			if obj == nil || !obj.Exported() || used[obj] || benchNames[obj.Name()] {
				continue
			}
			name := p.types.Name() + "." + obj.Name()
			switch o := obj.(type) {
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					named := receiverNamed(recv.Type())
					if named == nil || facade[named.Obj()] || satisfiesSome(named, o.Name(), ifaces) {
						continue
					}
					name = p.types.Name() + "." + named.Obj().Name() + "." + obj.Name()
				}
			case *types.TypeName, *types.Const:
				if obj.Parent() != p.types.Scope() {
					continue
				}
			case *types.Var:
				if o.IsField() || obj.Parent() != p.types.Scope() {
					continue
				}
			default:
				continue
			}
			if _, kept := referenceKeep[name]; kept {
				continue
			}
			pos := m.fset.Position(id.Pos())
			findings = append(findings, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("%s: exported, but only tests reference it", f)
	}
	if len(referenceKeep) > 10 {
		t.Errorf("referenceKeep has %d entries; it is for reference implementations only (at most 10)", len(referenceKeep))
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

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// satisfiesSome reports whether named (or a pointer to it) implements one
// of ifaces that declares a method called method.
func satisfiesSome(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method && (types.Implements(named, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// identifiersUnder returns every identifier spelled in a .go file under
// dir: the benchmark is its own module, so a name match stands in for a
// type-checked reference there, as it does in `make options`.
func identifiersUnder(t *testing.T, dir string) map[string]bool {
	names := make(map[string]bool)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
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
	return names
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
