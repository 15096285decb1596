package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Program is a loaded set of packages sharing one FileSet and type
// universe.
type Program struct {
	Fset       *token.FileSet
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path declared in go.mod
	Packages   []*Package

	byPath map[string]*Package
	std    types.Importer
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Imports    []string

	directives []*directive
	loading    bool
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: %s/go.mod has no module directive", root)
}

// NewProgram prepares an empty program rooted at the module containing
// dir.
func NewProgram(dir string) (*Program, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Program{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: mod,
		byPath:     make(map[string]*Package),
		std:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// Load resolves the given patterns and loads (parses + type-checks) every
// matched package. Patterns follow the go tool's shape: "./..." and
// "dir/..." walk directory trees (skipping testdata, vendor and dot
// directories); other arguments name a single directory, relative to cwd.
func (p *Program) Load(cwd string, patterns []string) error {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := rest
			if base == "." || base == "" {
				base = cwd
			} else if !filepath.IsAbs(base) {
				base = filepath.Join(cwd, base)
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return err
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		if !hasGoFiles(dir) {
			return fmt.Errorf("lint: no Go files in %s", dir)
		}
		add(dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := p.loadDir(dir); err != nil {
			return err
		}
	}
	return nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && goSourceName(e.Name()) {
			return true
		}
	}
	return false
}

// goSourceName reports whether name is a non-test Go source file. Test
// files are the harness around the program under test, not the program
// itself, so the discipline does not apply to them.
func goSourceName(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (p *Program) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(p.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, p.ModuleRoot)
	}
	if rel == "." {
		return p.ModulePath, nil
	}
	return p.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func (p *Program) dirFor(importPath string) string {
	if importPath == p.ModulePath {
		return p.ModuleRoot
	}
	return filepath.Join(p.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(importPath, p.ModulePath+"/")))
}

// loadDir loads the package in dir (and, transitively, any module-internal
// packages it imports), returning the cached instance on repeat calls.
func (p *Program) loadDir(dir string) (*Package, error) {
	importPath, err := p.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return p.loadImportPath(importPath)
}

func (p *Program) loadImportPath(importPath string) (*Package, error) {
	if pkg, ok := p.byPath[importPath]; ok {
		if pkg.loading {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	dir := p.dirFor(importPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: importPath, Dir: dir, loading: true}
	p.byPath[importPath] = pkg

	var names []string
	for _, e := range entries {
		if e.IsDir() || !goSourceName(e.Name()) {
			continue
		}
		// Only the files the go tool compiles on this platform: file-name
		// suffixes and //go:build lines select them.
		ok, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			delete(p.byPath, importPath)
			return nil, err
		}
		if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		delete(p.byPath, importPath)
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	for _, name := range names {
		file, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			delete(p.byPath, importPath)
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
	}

	// Load module-internal imports first so type-checking below can
	// resolve them from the cache.
	importSet := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			importSet[path] = true
		}
	}
	for path := range importSet {
		pkg.Imports = append(pkg.Imports, path)
	}
	sort.Strings(pkg.Imports)
	for _, path := range pkg.Imports {
		if path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/") {
			if _, err := p.loadImportPath(path); err != nil {
				return nil, err
			}
		}
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*progImporter)(p),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, p.Fset, pkg.Files, pkg.Info)
	if err != nil && tpkg == nil {
		delete(p.byPath, importPath)
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	if len(typeErrs) > 0 {
		delete(p.byPath, importPath)
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, typeErrs[0])
	}
	pkg.Types = tpkg
	pkg.directives = parseDirectives(p.Fset, pkg.Files)
	pkg.loading = false
	p.Packages = append(p.Packages, pkg)
	return pkg, nil
}

// progImporter resolves imports during type-checking: module-internal
// packages come from the program's own source loader, everything else from
// the stdlib source importer (sharing the program's FileSet).
type progImporter Program

func (pi *progImporter) Import(path string) (*types.Package, error) {
	p := (*Program)(pi)
	if path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/") {
		pkg, err := p.loadImportPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return p.std.Import(path)
}
