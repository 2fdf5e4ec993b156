package lint

import (
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
	"sync"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	// Path is the package's import path ("totoro/internal/pubsub"); for
	// directories outside the module (test corpora) it is synthesized from
	// the directory name.
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Pkg and Info carry full type information. Pkg is non-nil even when
	// TypeErrors is not empty (best-effort checking).
	Pkg  *types.Package
	Info *types.Info
	// TypeErrors collects type-checking problems. The repo gate treats any
	// as fatal; test corpora are expected to be error-free too.
	TypeErrors []error
}

// Loader parses and type-checks packages from source. Module-internal
// dependencies are themselves loaded from source (recursively, on demand),
// so every package in one Loader shares a single go/types universe —
// cross-package analyses can compare types.Object pointers directly.
// Out-of-module dependencies are imported from compiled export data
// located via `go list -export`, which resolves through the module's build
// cache — so the loader needs the go toolchain but no third-party
// machinery, and sees exactly the types the real build sees.
type Loader struct {
	// ModRoot is the module root directory (where go.mod lives).
	ModRoot string
	// ModPath is the module path declared in go.mod.
	ModPath string

	fset       *token.FileSet
	ctx        build.Context
	imp        types.ImporterFrom
	exports    map[string]string   // import path -> export data file
	prefetched bool                // one-shot `go list -export -deps` ran
	pkgs       map[string]*Package // by absolute dir
	loading    map[string]bool     // dirs mid-check (import-cycle guard)
	loaded     []*Package          // every package, in load order
}

// NewLoader creates a loader rooted at the module containing dir (found by
// walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModRoot: root,
		ModPath: modPath,
		fset:    token.NewFileSet(),
		ctx:     build.Default,
		exports: map[string]string{},
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	// Analysis targets are pure Go; cgo-tagged files are excluded up front
	// so the parser never sees import "C" magic.
	l.ctx.CgoEnabled = false
	l.imp = importer.ForCompiler(l.fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l, nil
}

// Loaded returns every package this loader has loaded, in load order.
func (l *Loader) Loaded() []*Package { return l.loaded }

// sourceFirstImporter resolves module-internal import paths by loading the
// target package from source through the same Loader, and falls back to
// compiled export data for everything else. Source-first importing is what
// gives the whole program ONE type-checking universe: the *types.Func for
// ring.(*Node).Route seen by the pubsub package is the same object the
// ring package defines, so the call graph can key nodes by object
// identity instead of re-deriving symbolic names.
type sourceFirstImporter struct{ l *Loader }

func (si sourceFirstImporter) Import(path string) (*types.Package, error) {
	return si.ImportFrom(path, "", 0)
}

func (si sourceFirstImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if sub, ok := si.l.moduleDir(path); ok {
		p, err := si.l.LoadDir(sub)
		if err != nil {
			return nil, err
		}
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: dependency %s does not type-check: %v", path, p.TypeErrors[0])
		}
		return p.Pkg, nil
	}
	return si.l.imp.ImportFrom(path, dir, mode)
}

// moduleDir maps a module-internal import path to its source directory
// (ok=false for out-of-module paths).
func (l *Loader) moduleDir(path string) (string, bool) {
	if path == l.ModPath {
		return l.ModRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// findModule walks up from dir to the nearest go.mod.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// lookupExport resolves an import path to its compiled export data via the
// go toolchain (building it into the cache if needed). The first miss
// triggers one batched `go list -export -deps ./...` that resolves every
// dependency of the module in a single toolchain invocation — the
// per-import subprocess is only a fallback for paths outside the module's
// dependency graph (test corpora importing stdlib packages the module
// never uses).
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok && !l.prefetched {
		l.prefetchExports()
		file, ok = l.exports[path]
	}
	if !ok {
		cmd := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path)
		cmd.Dir = l.ModRoot
		out, err := cmd.Output()
		if err != nil {
			detail := ""
			if ee, ok := err.(*exec.ExitError); ok {
				detail = ": " + strings.TrimSpace(string(ee.Stderr))
			}
			return nil, fmt.Errorf("lint: go list -export %s: %v%s", path, err, detail)
		}
		file = strings.TrimSpace(string(out))
		if file == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		l.exports[path] = file
	}
	return os.Open(file)
}

// prefetchExports fills the export cache for the module's whole dependency
// graph in one `go list` run. Best-effort: any failure just leaves the
// cache to be filled by per-path lookups.
func (l *Loader) prefetchExports() {
	l.prefetched = true
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	cmd.Dir = l.ModRoot
	out, err := cmd.Output()
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(strings.TrimSpace(line), "\t")
		if !ok || file == "" {
			continue
		}
		if _, have := l.exports[path]; !have {
			l.exports[path] = file
		}
	}
}

// importPathFor synthesizes the import path of a directory: module-relative
// when inside the module, "lint.test/<base>" otherwise (test corpora in
// temporary directories).
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "lint.test/" + filepath.Base(dir)
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// LoadDir parses and type-checks the non-test Go files of one directory.
// Files excluded by build constraints for the current GOOS/GOARCH (or by
// cgo) are skipped, mirroring what the real build would compile. Parse
// errors are fatal; type errors are collected in Package.TypeErrors.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[abs]; ok {
		return p, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := l.ctx.MatchFile(abs, name)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %v", filepath.Join(abs, name), err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", abs)
	}
	// Parse concurrently: token.FileSet is safe for concurrent AddFile, and
	// parsing dominates load time for large packages. Results keep the
	// sorted-name order so downstream iteration stays deterministic.
	parsed := make([]*ast.File, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parsed[i], errs[i] = parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		}()
	}
	wg.Wait()
	var files []*ast.File
	for i, f := range parsed {
		if errs[i] != nil {
			return nil, errs[i]
		}
		// MatchFile handles build tags but not cgo; with cgo disabled a
		// file importing "C" is unbuildable, so skip it like the build
		// would rather than fail type-checking on the pseudo-package.
		if usesCgo(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", abs)
	}
	p := &Package{
		Path:  l.importPathFor(abs),
		Dir:   abs,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer: sourceFirstImporter{l},
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	// Check reports the first error as err; everything lands in TypeErrors
	// via the callback, and the partially checked package stays usable.
	p.Pkg, _ = conf.Check(p.Path, l.fset, files, p.Info)
	l.pkgs[abs] = p
	l.loaded = append(l.loaded, p)
	return p, nil
}

// usesCgo reports whether f imports the cgo pseudo-package "C".
func usesCgo(f *ast.File) bool {
	for _, imp := range f.Imports {
		if importPathOf(imp) == "C" {
			return true
		}
	}
	return false
}
