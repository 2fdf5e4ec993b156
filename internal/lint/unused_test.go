package lint

import "testing"

// TestUnusedCorpus pins the unused analyzer's full output over a module
// with a library, a second package and a main package: a function only a
// test calls, a helper only a dead function calls, a dead cycle, a Config
// field only a test sets and a method that satisfies no interface are
// flagged; calls from another package and from main, methods that satisfy
// a module interface or fmt.Stringer, a field set in a composite literal
// and a function kept with a reasoned //lint:ignore (and its callee) are
// not; an ignore on a used function is reported as stale.
func TestUnusedCorpus(t *testing.T) {
	RunExpectTestModule(t, "testdata/src/unused", Unused)
}
