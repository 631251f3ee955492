package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a fully parsed and type-checked Go module: every non-test
// package under the module root, in deterministic (import-path) order.
type Module struct {
	Dir  string // module root on disk
	Path string // module import path (from go.mod, or synthetic)
	Fset *token.FileSet
	Pkgs []*Package

	byPath map[string]*Package
}

// Package is one loaded package with its syntax and type information.
type Package struct {
	Path  string // import path
	Dir   string // directory on disk
	Name  string // package name
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// LoadModule loads the module rooted at dir, reading the module path from
// its go.mod. All packages are parsed (with comments — the waiver grammar
// lives there) and type-checked; any parse or type error fails the load,
// because the analyzers depend on complete type information.
func LoadModule(dir string) (*Module, error) {
	path, err := moduleGoModPath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	return LoadTree(dir, path)
}

// LoadTree loads every package under dir as if it were a module named
// modPath. It is LoadModule without the go.mod requirement, used by the
// analyzer fixture tests.
func LoadTree(dir, modPath string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Dir:    abs,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}

	srcs, err := discover(abs, modPath)
	if err != nil {
		return nil, err
	}
	for _, s := range srcs {
		for _, name := range s.filenames {
			f, err := parser.ParseFile(m.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			s.files = append(s.files, f)
		}
	}

	imp := &moduleImporter{
		mod:  m,
		srcs: make(map[string]*pkgSrc, len(srcs)),
		std:  importer.ForCompiler(m.Fset, "source", nil),
	}
	for _, s := range srcs {
		imp.srcs[s.path] = s
	}
	for _, s := range srcs {
		if _, err := imp.Import(s.path); err != nil {
			return nil, err
		}
	}

	for _, s := range srcs {
		m.Pkgs = append(m.Pkgs, s.pkg)
		m.byPath[s.path] = s.pkg
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m, nil
}

// moduleGoModPath extracts the module path from a go.mod file.
func moduleGoModPath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", file)
}

// pkgSrc is one discovered package directory awaiting type-check.
type pkgSrc struct {
	path      string
	dir       string
	filenames []string
	files     []*ast.File
	pkg       *Package
	checking  bool
}

// discover walks the module tree and returns one pkgSrc per directory that
// holds non-test Go files. testdata, hidden, and underscore directories are
// skipped, matching the go tool's own package discovery.
func discover(root, modPath string) ([]*pkgSrc, error) {
	byDir := make(map[string]*pkgSrc)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		s := byDir[dir]
		if s == nil {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			ipath := modPath
			if rel != "." {
				ipath = modPath + "/" + filepath.ToSlash(rel)
			}
			s = &pkgSrc{path: ipath, dir: dir}
			byDir[dir] = s
		}
		s.filenames = append(s.filenames, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	srcs := make([]*pkgSrc, 0, len(byDir))
	for _, s := range byDir {
		sort.Strings(s.filenames)
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].path < srcs[j].path })
	return srcs, nil
}

// moduleImporter resolves module-internal import paths against the loaded
// sources (type-checking them on demand, memoized) and delegates everything
// else to the stdlib source importer. The module has zero dependencies, so
// "everything else" is exactly the standard library.
type moduleImporter struct {
	mod  *Module
	srcs map[string]*pkgSrc
	std  types.Importer
}

func (imp *moduleImporter) Import(path string) (*types.Package, error) {
	s, ok := imp.srcs[path]
	if !ok {
		return imp.std.Import(path)
	}
	if s.pkg != nil {
		return s.pkg.Types, nil
	}
	if s.checking {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	s.checking = true
	defer func() { s.checking = false }()

	// The analyzers need only what Info.TypeOf and identifier resolution
	// read.
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, imp.mod.Fset, s.files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	s.pkg = &Package{
		Path:  path,
		Dir:   s.dir,
		Name:  tpkg.Name(),
		Files: s.files,
		Types: tpkg,
		Info:  info,
	}
	return tpkg, nil
}
