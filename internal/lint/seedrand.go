package lint

import (
	"go/ast"
	"go/types"
)

// SeedRand guards same-seed reproducibility of randomness: deterministic
// packages must draw from explicitly seeded sources — ideally derived via
// fl.DeriveSeed/fl.ClientRNG from (app seed, round, client tag) so streams
// are independent of scheduling — never from math/rand's process-global
// source (randomly seeded since Go 1.20) and never from sources seeded
// with wall-clock time. One stray rand.Intn() makes two same-seed runs
// diverge in a way that only surfaces as flaky experiment output.
var SeedRand = &Analyzer{
	Name: "seedrand",
	Doc:  "deterministic packages must not use math/rand's global source or time-seeded sources",
	Run:  runSeedRand,
}

// randSourceCtors are the math/rand functions that construct explicitly
// seeded values rather than drawing from the global source.
var randSourceCtors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runSeedRand(pass *Pass) {
	for ident, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			continue // methods on an explicit *rand.Rand/Source are fine
		}
		if !randSourceCtors[fn.Name()] {
			pass.Reportf(ident.Pos(),
				"rand.%s draws from the process-global source and breaks same-seed determinism; use a source derived via fl.DeriveSeed/fl.ClientRNG", fn.Name())
		}
	}
	// Explicit constructors are allowed — unless their seed argument comes
	// from the wall clock, which reintroduces run-to-run divergence.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if (path != "math/rand" && path != "math/rand/v2") || !randSourceCtors[fn.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if bad := timeDerived(pass, arg); bad != nil {
					pass.Reportf(bad.Pos(),
						"rand.%s seeded from the wall clock; derive the seed from configuration (fl.DeriveSeed) instead", fn.Name())
				}
			}
			return true
		})
	}
}

// calleeFunc resolves a call's callee to a *types.Func when it is a direct
// function or method reference (nil for indirect calls and conversions).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// timeDerived reports a node within expr whose value comes from the time
// package (time.Now().UnixNano() and friends); nil when clean.
func timeDerived(pass *Pass, expr ast.Expr) ast.Node {
	var found ast.Node
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[ident]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
			// Package-level functions (time.Now, ...) read the wall clock;
			// methods on Duration/Time values are pure arithmetic on a value
			// that may well be virtual time.
			if fn, isFunc := obj.(*types.Func); isFunc && fn.Type().(*types.Signature).Recv() == nil {
				found = ident
				return false
			}
		}
		return true
	})
	return found
}
