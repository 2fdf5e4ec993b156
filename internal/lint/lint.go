// Package lint is Totoro's static-analysis framework: a stdlib-only
// analyzer driver (go/ast + go/types + go/importer) that mechanically
// enforces the engine's determinism, concurrency, and wire invariants.
//
// The framework loads one package at a time from source, type-checks it
// against compiled export data for its dependencies (resolved through the
// go toolchain's build cache), and runs a set of Analyzers over the
// type-annotated syntax. Each analyzer guards one invariant that compiles
// fine when broken and only surfaces later as flaky large-fleet divergence
// or cross-node decode failures:
//
//   - envnow:   wall-clock reads in protocol packages (breaks virtual-time
//     replay under the simulator);
//   - maporder: map iteration whose order can leak into message sends,
//     telemetry, RNG draws, or floating-point accumulation (breaks
//     bit-identical same-seed runs);
//   - seedrand: math/rand global-source draws and time-seeded sources in
//     deterministic packages (same);
//   - gofunc:   bare goroutines in protocol packages that bypass the
//     supervised fl.Go/fl.ForEach pool and the event loop;
//   - wiresafe: unencodable fields in codec-registered wire messages,
//     Env.Send payload types with no codec (moves in memory under simnet,
//     dropped by tcpnet), and durable-store record types without codec-v2
//     encoders (the WAL refuses them at runtime, after the state change
//     they were meant to journal).
//
// Four analyzers run on a whole-program call graph (see callgraph.go)
// that the driver builds once per run over every loaded package:
//
//   - reentry:  handler code synchronously re-entering the event-loop
//     dispatch (a Route/Deliver cycle observes half-updated node state);
//   - maporder, again: its sink summaries come from the call graph, so a
//     map-range body that leaks order through a helper in ANOTHER package
//     is caught too;
//   - noalloc:  functions marked //vet:noalloc (training kernels, Accum
//     merges, codec hot paths) must not allocate: no composite literals
//     that escape, no append beyond caller-owned storage, no interface
//     boxing, closures, string building, or calls to allocating callees;
//   - unused:   functions, and Config/Options fields, that no live non-test
//     code uses.
//
// Findings a human has judged acceptable are suppressed in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory; an ignore directive without one is itself a diagnostic —
// directive hygiene is the suite's ninth analyzer ("directive"), applied
// by the driver as part of suppression processing.
//
// The suite runs as `totoro-vet ./...` (cmd/totoro-vet) and as the
// in-tree CI gate TestRepoVetGate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass hands one loaded package, plus cross-package context, to an
// analyzer's Run.
type Pass struct {
	*Package
	// Wire is the repo-wide set of codec-registered wire types and store
	// records, built by the driver before analyzers run. Nil when no wire
	// context was collected.
	Wire *WireSet
	// Graph is the whole-program call graph, built once per driver run and
	// shared by every analyzer (reentry, maporder, noalloc and unused
	// consult it; the per-package analyzers ignore it). Nil only when an
	// analyzer is run outside the driver without graph context.
	Graph *CallGraph

	diags []Diagnostic
}

// Reportf records a diagnostic for the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one static check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Run inspects pass.Package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Analyzers is the full suite in stable order: the five per-package
// analyzers, the four call-graph analyzers, and directive hygiene.
func Analyzers() []*Analyzer {
	return []*Analyzer{EnvNow, MapOrder, SeedRand, GoFunc, WireSafe, Reentry, NoAlloc, Unused, Directive}
}

// Directive is the suppression-hygiene analyzer: //lint:ignore directives
// must carry a reason and must actually suppress something. Its findings
// are produced by ApplySuppressions (the driver applies it as part of
// suppression processing rather than via Run, which is why Run is a no-op)
// but it is a first-class suite member: listable, -only-selectable, and
// itself suppressible by name like any other analyzer.
var Directive = &Analyzer{
	Name: "directive",
	Doc:  "//lint:ignore directives must carry a reason and suppress at least one finding",
	Run:  func(*Pass) {},
}

// AnalyzerByName resolves one analyzer (nil if unknown).
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzer runs one analyzer over one package and returns its raw
// (unsuppressed) diagnostics, tagged with the analyzer name and sorted by
// position. graph may be nil for analyzers that do not consult it.
func RunAnalyzer(a *Analyzer, pkg *Package, wire *WireSet, graph *CallGraph) []Diagnostic {
	pass := &Pass{Package: pkg, Wire: wire, Graph: graph}
	a.Run(pass)
	for i := range pass.diags {
		pass.diags[i].Analyzer = a.Name
	}
	SortDiagnostics(pass.diags)
	return pass.diags
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// --- suppression directives ---

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool // analyzer names (comma-separated in source)
	reason    string
	used      bool
}

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s*(.*)$`)

// parseIgnores scans a file's comments for //lint:ignore directives.
// Malformed directives (no reason) are reported as "lint" diagnostics so
// that suppressions stay auditable.
func parseIgnores(fset *token.FileSet, f *ast.File) (dirs []*ignoreDirective, bad []Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			reason := strings.TrimSpace(m[2])
			if reason == "" {
				bad = append(bad, Diagnostic{
					Pos:      pos,
					Analyzer: Directive.Name,
					Message:  "//lint:ignore directive needs a reason: //lint:ignore <analyzer> <reason>",
				})
				continue
			}
			names := map[string]bool{}
			for _, n := range strings.Split(m[1], ",") {
				names[strings.TrimSpace(n)] = true
			}
			dirs = append(dirs, &ignoreDirective{pos: pos, analyzers: names, reason: reason})
		}
	}
	return dirs, bad
}

// ApplySuppressions filters diags through the package's //lint:ignore
// directives. A directive suppresses matching diagnostics on its own line
// or on the line directly below it (i.e. place it at the end of the
// flagged line or on the line above). It returns the surviving
// diagnostics plus directive-hygiene findings: malformed directives and
// directives that matched nothing (stale suppressions rot the audit
// trail, so they fail the gate too).
func ApplySuppressions(pkg *Package, diags []Diagnostic) (kept, directiveDiags []Diagnostic) {
	var dirs []*ignoreDirective
	for _, f := range pkg.Files {
		fd, bad := parseIgnores(pkg.Fset, f)
		dirs = append(dirs, fd...)
		directiveDiags = append(directiveDiags, bad...)
	}
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.pos.Filename != d.Pos.Filename || !dir.analyzers[d.Analyzer] {
				continue
			}
			if d.Pos.Line == dir.pos.Line || d.Pos.Line == dir.pos.Line+1 {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used {
			names := make([]string, 0, len(dir.analyzers))
			for n := range dir.analyzers {
				names = append(names, n)
			}
			sort.Strings(names)
			directiveDiags = append(directiveDiags, Diagnostic{
				Pos:      dir.pos,
				Analyzer: Directive.Name,
				Message: fmt.Sprintf("//lint:ignore %s directive suppresses nothing; delete it",
					strings.Join(names, ",")),
			})
		}
	}
	return kept, directiveDiags
}
