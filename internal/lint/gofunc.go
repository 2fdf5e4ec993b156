package lint

import (
	"go/ast"
)

// GoFunc guards the concurrency architecture: protocol packages are
// event-driven and single-threaded per node — all parallelism flows
// through the supervised, bounded worker pool (fl.Go / fl.ForEach, which
// recycle workspaces and keep goroutine count fixed) or through Env.After
// on the event loop. A bare `go` statement sidesteps both: it can outlive
// the round that spawned it, race node state that the event loop assumes
// it owns exclusively, and make goroutine count proportional to fleet
// size. The simulator core and the other deterministic packages are held
// to the same rule. The pool's own implementation and the event loop's
// lanes (simnet's parallel windows) carry the suite's only blessed
// suppressions.
var GoFunc = &Analyzer{
	Name: "gofunc",
	Doc:  "bare go statements in protocol packages must use fl.Go/fl.ForEach or Env.After",
	Run:  runGoFunc,
}

func runGoFunc(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "bare go statement bypasses the supervised worker pool; use fl.Go/fl.ForEach for compute or Env.After for scheduling")
			}
			return true
		})
	}
}
