package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer applicability. Invariants are properties of specific layers,
// not of Go in general: the simulator driver may read the wall clock to
// report real elapsed time, but a protocol package may not. The driver —
// not the analyzers — owns this mapping so each analyzer stays a pure
// "find every instance" check and the policy lives in one place.
var (
	// protocolDirs are the event-driven protocol layers plus the engine
	// root: single-threaded per node, virtual-time only, everything they
	// emit is part of the deterministic replay surface.
	protocolDirs = map[string]bool{
		".":                  true, // engine root (totoro)
		"internal/ring":      true,
		"internal/pubsub":    true,
		"internal/multiring": true,
		"internal/relay":     true,
		"internal/fl":        true,
		// The wire layer: its codecs run inside every send, so the
		// protocol rules hold there too.
		"internal/wire/codec": true,
	}
	// deterministicDirs additionally covers the simulator core and the
	// experiment harness, whose outputs must be bit-identical across
	// same-seed runs even though they are not protocol layers.
	deterministicDirs = map[string]bool{
		"internal/simnet":      true,
		"internal/experiments": true,
		"internal/bandit":      true,
		"internal/eua":         true,
		"internal/workload":    true,
	}
	// hotPathDirs are packages outside the protocol/deterministic sets that
	// carry //vet:noalloc annotations — the training kernels and the trace
	// ring. (fl and the codec are hot paths too, but already members of
	// protocolDirs.)
	hotPathDirs = map[string]bool{
		"internal/ml":  true,
		"internal/obs": true,
	}
)

// analyzersFor returns the suite subset that applies to the package at
// module-relative dir rel. Packages outside every set still get loaded
// (their codec registrations feed the wire pre-pass and their declarations
// feed the call graph) but are not analyzed.
func analyzersFor(rel string) []*Analyzer {
	var out []*Analyzer
	if protocolDirs[rel] {
		out = append(out, EnvNow, WireSafe, Reentry)
	}
	if protocolDirs[rel] || deterministicDirs[rel] {
		out = append(out, GoFunc, MapOrder, SeedRand)
	}
	if protocolDirs[rel] || deterministicDirs[rel] || hotPathDirs[rel] {
		out = append(out, NoAlloc)
	}
	// Every library package: the main packages (cmd/, examples/, bench/)
	// are callers, not targets.
	if rel == "." || strings.HasPrefix(rel, "internal/") {
		out = append(out, Unused)
	}
	return out
}

// RunRepo loads every package matched by patterns, builds the repo-wide
// wire registration set, runs each package's applicable analyzers, applies
// //lint:ignore suppressions, and returns the surviving diagnostics sorted
// and deduplicated. Patterns are Go-style: "./..." for the whole module,
// or module-relative directories ("internal/ring"). Type errors in any
// matched package are fatal — analyzers cannot be trusted on partially
// checked code.
func RunRepo(modRoot string, patterns []string) ([]Diagnostic, error) {
	loader, err := NewLoader(modRoot)
	if err != nil {
		return nil, err
	}
	dirs, err := resolvePatterns(loader.ModRoot, patterns)
	if err != nil {
		return nil, err
	}
	// Wire pre-pass over the WHOLE module, not just the selected patterns:
	// registrations live in internal/wire/codec and the engine root, and
	// they vouch for types sent from any package — a single-package run
	// must see the same registration set as a full run or wiresafe would
	// report phantom unregistered payloads.
	allDirs, err := resolvePatterns(loader.ModRoot, []string{"./..."})
	if err != nil {
		return nil, err
	}
	wire := NewWireSet()
	for _, dir := range allDirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		CollectWire(pkg, wire)
	}
	// The call graph spans the same whole-module package set as the wire
	// pre-pass (plus anything the loader pulled in as a dependency): the
	// graph analyzers need to see call chains that cross into packages the
	// selected patterns did not name.
	graph := BuildCallGraph(loader.Loaded())
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("lint: %s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
		pkgs = append(pkgs, pkg)
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		rel, err := filepath.Rel(loader.ModRoot, pkg.Dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		analyzers := analyzersFor(rel)
		if len(analyzers) == 0 {
			continue
		}
		var raw []Diagnostic
		for _, a := range analyzers {
			raw = append(raw, RunAnalyzer(a, pkg, wire, graph)...)
		}
		kept, directiveDiags := ApplySuppressions(pkg, raw)
		all = append(all, kept...)
		all = append(all, directiveDiags...)
	}
	SortDiagnostics(all)
	return dedupDiagnostics(all), nil
}

// dedupDiagnostics removes exact duplicates from a sorted slice (the same
// cross-package wire finding can surface from two loads of one type).
func dedupDiagnostics(ds []Diagnostic) []Diagnostic {
	out := ds[:0]
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// resolvePatterns expands Go-style package patterns into absolute package
// directories. "./..." (or "...") walks the whole module; "dir/..." walks
// a subtree; anything else names one directory. testdata, vendor, .git,
// and hidden directories are never descended into — matching the go
// tool's own rules.
func resolvePatterns(modRoot string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || pat == "./..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(modRoot, root)
		}
		if !recursive {
			if hasBuildableGo(root) {
				add(root)
			} else {
				return nil, fmt.Errorf("lint: no Go files in %s", root)
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasBuildableGo(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasBuildableGo reports whether dir directly contains at least one
// non-test .go file.
func hasBuildableGo(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
