package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuppressionDirectives exercises //lint:ignore handling end to end:
// same-line and line-above placement, analyzer-name matching, and the
// stale-directive finding.
func TestSuppressionDirectives(t *testing.T) {
	RunExpectTest(t, "testdata/src/suppress", EnvNow)
}

// TestBuildConstraintFiltering proves files excluded by a never-set build
// tag or by cgo are filtered out before parsing: both sibling files call
// time.Now, yet the package analyzes clean from its single included file.
func TestBuildConstraintFiltering(t *testing.T) {
	loader, err := NewLoader("testdata/src/buildtag")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/buildtag")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (tag- and cgo-excluded files must be skipped)", len(pkg.Files))
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	RunExpectTest(t, "testdata/src/buildtag", EnvNow)
}

// TestMissingReasonDirective: an ignore directive without a reason is a
// finding in its own right and suppresses nothing. (Tested directly — the
// corpus harness cannot express it, since a same-line want marker would
// itself read as the reason.)
func TestMissingReasonDirective(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "bad.go", `package p

//lint:ignore envnow
var x = 1
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	dirs, bad := parseIgnores(fset, f)
	if len(dirs) != 0 {
		t.Errorf("reasonless directive must not become a usable suppression, got %d", len(dirs))
	}
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "needs a reason") {
		t.Errorf("want one needs-a-reason finding, got %v", bad)
	}
}

// TestParseErrorFatal: a package that does not parse is a hard loader
// error, not a silent skip.
func TestParseErrorFatal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module lint.broken\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package broken\n\nfunc oops( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadDir(dir); err == nil {
		t.Fatal("LoadDir accepted a file that does not parse")
	}
}

// TestMultiPackageRun drives the driver over several real protocol
// packages in one invocation — shared loader, shared wire set — and
// expects a clean bill.
func TestMultiPackageRun(t *testing.T) {
	diags, err := RunRepo("../..", []string{"internal/ring", "internal/pubsub", "internal/wire/codec"})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestHarnessCatchesMismatch: the expectation harness itself must fail on
// both unexpected diagnostics and unmet wants, otherwise green corpus
// tests prove nothing.
func TestHarnessCatchesMismatch(t *testing.T) {
	rec := &recordingT{}
	// The gofunc corpus run under envnow: its gofunc want markers go unmet
	// (and no envnow diagnostics fire), so the harness must complain.
	RunExpectTest(rec, "testdata/src/gofunc", EnvNow)
	if rec.fatals > 0 {
		t.Fatalf("unexpected fatal: %v", rec.msgs)
	}
	if rec.errors == 0 {
		t.Fatal("harness reported success on a corpus with unmet wants")
	}
	for _, m := range rec.msgs {
		if !strings.Contains(m, "expected diagnostic") {
			t.Errorf("unexpected harness complaint: %s", m)
		}
	}
}

// TestAnalyzerRegistry: every analyzer is resolvable by the name used in
// //lint:ignore directives and -only flags.
func TestAnalyzerRegistry(t *testing.T) {
	for _, a := range Analyzers() {
		if got := AnalyzerByName(a.Name); got != a {
			t.Errorf("AnalyzerByName(%q) = %v", a.Name, got)
		}
		if a.Doc == "" {
			t.Errorf("%s: empty Doc", a.Name)
		}
	}
	if AnalyzerByName("nope") != nil {
		t.Error("AnalyzerByName accepted an unknown name")
	}
}

// recordingT captures harness output for harness self-tests.
type recordingT struct {
	errors, fatals int
	msgs           []string
}

func (r *recordingT) Helper() {}

func (r *recordingT) Errorf(format string, args ...any) {
	r.errors++
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *recordingT) Fatalf(format string, args ...any) {
	r.fatals++
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}
