package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder guards bit-identical same-seed runs against Go's randomized map
// iteration order. Ranging over a map is fine while the body only builds
// sets, deletes entries, or computes order-independent values — but the
// moment iteration order can leak into observable state the run stops
// being reproducible. Two leak shapes are flagged:
//
//   - the loop body reaches an order-sensitive sink — a network send
//     (message order decides event order fleet-wide), a telemetry emit
//     (trace interleaving), an RNG draw (stream consumption order), or a
//     floating-point accumulation (addition is not associative) — directly
//     or through any call chain in the program: the sink summaries come
//     from the whole-program call graph, so a helper in another package
//     (or a callback resolved through an interface) that ends in Env.Send
//     is caught the same as an inline send;
//   - the loop is an argmin/argmax selection into variables declared
//     outside the loop: with a strict comparison, ties are broken by
//     whichever key the runtime happened to yield first.
//
// The fix is the sorted-keys idiom: snapshot the keys (or values), sort
// them, and iterate the slice — see obs.sortedKeys — or, where the loop is
// hot, keep the collection as a sorted slice in the first place, as
// pubsub's topicState.children does.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration must not reach sends, telemetry, RNG draws, float accumulation, or tie-broken selections",
	Run:  runMapOrder,
}

// sinkMask classifies order-sensitive effects.
type sinkMask uint8

const (
	sinkSend sinkMask = 1 << iota
	sinkMetric
	sinkRNG
	sinkMerge
)

func (m sinkMask) describe() string {
	switch {
	case m&sinkSend != 0:
		return "a network send"
	case m&sinkMetric != 0:
		return "a telemetry emit"
	case m&sinkRNG != 0:
		return "an RNG draw"
	case m&sinkMerge != 0:
		return "a floating-point accumulation"
	}
	return "an order-sensitive effect"
}

// sendMethodNames are method names that put a message on the wire (or hand
// it to a layer that will). Matched by name: in protocol packages these
// names are reserved for transmission paths.
var sendMethodNames = map[string]bool{
	"Send":         true,
	"Route":        true,
	"Publish":      true,
	"Broadcast":    true,
	"Multicast":    true,
	"SubmitUpdate": true,
}

// obsEmitNames are the obs.Registry instrument mutators and trace emit.
var obsEmitNames = map[string]bool{
	"Inc":     true,
	"Add":     true,
	"Observe": true,
	"Set":     true,
	"Trace":   true,
	"TraceID": true,
}

// mergeCallNames are functions/methods that fold one aggregate into
// another (floating-point merges, order-sensitive).
var mergeCallNames = map[string]bool{
	"Combine":      true,
	"combine":      true,
	"Merge":        true,
	"MergeInPlace": true,
	"mergeUpdates": true,
}

func runMapOrder(pass *Pass) {
	// Sink summaries come from the shared whole-program graph; a
	// single-package graph is built on the fly when the analyzer runs
	// standalone (then only same-package chains are visible, the v1
	// behavior).
	graph := pass.Graph
	if graph == nil {
		graph = BuildCallGraph([]*Package{pass.Package})
	}
	sinks := graph.Sinks()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if mask, at := bodySink(pass, graph, sinks, rng); mask != 0 {
				pass.Reportf(at, "map iteration order is random per run and reaches %s; iterate a sorted snapshot of the keys instead", mask.describe())
			}
			if at := argSelect(pass, rng); at != token.NoPos {
				pass.Reportf(at, "selection over map iteration breaks comparison ties in random order; iterate sorted keys so ties resolve deterministically")
			}
			return true
		})
	}
}

// directSink classifies one call as an order-sensitive effect.
func directSink(pass *Pass, n ast.Node) sinkMask {
	return directSinkInfo(pass.Package, n)
}

// directSinkInfo is the Pass-free form of directSink, usable by the call
// graph's summary computation. Classification is name-based over resolved
// callee objects, so it works identically for in-program and stdlib
// callees — math/rand draw methods are the only stdlib entry points that
// count as sinks; the sort/slices/maps helpers contribute nothing (they
// take map-derived data and hand it back order-laundered).
func directSinkInfo(pkg *Package, n ast.Node) sinkMask {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return 0
	}
	fn := calleeOf(pkg, call)
	if fn == nil {
		return 0
	}
	recv := fn.Type().(*types.Signature).Recv()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch {
	case recv != nil && sendMethodNames[fn.Name()]:
		return sinkSend
	case recv != nil && pkgPath == "totoro/internal/obs" && obsEmitNames[fn.Name()]:
		return sinkMetric
	case recv != nil && (pkgPath == "math/rand" || pkgPath == "math/rand/v2"):
		return sinkRNG
	case mergeCallNames[fn.Name()]:
		return sinkMerge
	case fn.Name() == "Add" && recv != nil && pkgPath == "totoro/internal/fl":
		return sinkMerge // fl.Accum.Add, the in-place aggregate fold
	}
	return 0
}

// floatAccum reports whether n is a float compound assignment that folds
// into state surviving the loop — an accumulator declared outside it.
// Per-key writes into the ranged map itself and folds into loop-local
// temporaries are order-independent and stay allowed.
func floatAccum(pass *Pass, rng *ast.RangeStmt, n ast.Node) bool {
	assign, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	switch assign.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	for _, lhs := range assign.Lhs {
		t := pass.Info.TypeOf(lhs)
		if t == nil {
			continue
		}
		if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
			continue
		}
		root := rootIdent(lhs)
		if root == nil {
			continue
		}
		v, ok := pass.Info.Uses[root].(*types.Var)
		if !ok {
			continue
		}
		if rx := rootIdent(rng.X); rx != nil && pass.Info.Uses[rx] == v {
			continue // m[k] op= ... while ranging m: per-key state
		}
		if v.Pos() < rng.Pos() || v.Parent() == pass.Pkg.Scope() {
			return true
		}
	}
	return false
}

// rootIdent unwraps selectors, indexing, derefs, and parens down to the
// base identifier of an lvalue (nil when the base is not an identifier).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// bodySink scans a range body for direct sinks or calls into functions
// that (transitively) sink, resolving callees through the call graph: a
// static call into another package and a dynamic call through an interface
// or callback field both consult the whole-program summaries. It returns
// the sink mask and the position of the first offending node.
func bodySink(pass *Pass, graph *CallGraph, sinks map[*types.Func]sinkMask, rng *ast.RangeStmt) (sinkMask, token.Pos) {
	var mask sinkMask
	var at token.Pos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if mask != 0 {
			return false
		}
		if m := directSink(pass, n); m != 0 {
			mask, at = m, n.Pos()
			return false
		}
		if floatAccum(pass, rng, n) {
			mask, at = sinkMerge, n.Pos()
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			for _, site := range graph.SitesFor(call) {
				if site.Callee == nil {
					continue
				}
				if m := sinks[site.Callee.Fn.Origin()] &^ sinkMerge; m != 0 {
					mask, at = m, call.Pos()
					return false
				}
			}
			// Calls the graph has no node for (callee in a package loaded
			// outside the graph) still resolve by object identity.
			if callee := calleeFunc(pass, call); callee != nil {
				if m := sinks[callee.Origin()] &^ sinkMerge; m != 0 {
					mask, at = m, call.Pos()
					return false
				}
			}
		}
		return true
	})
	return mask, at
}

// argSelect detects the argmin/argmax pattern: inside the map-range body,
// an if statement whose condition is an ordered comparison and whose body
// plainly assigns to variables declared outside the loop. With a strict
// comparison, equal-cost entries are won by whichever key iterates first.
func argSelect(pass *Pass, rng *ast.RangeStmt) token.Pos {
	found := token.NoPos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != token.NoPos {
			return false
		}
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || !hasOrderedCmp(ifStmt.Cond) {
			return true
		}
		ast.Inspect(ifStmt.Body, func(m ast.Node) bool {
			if found != token.NoPos {
				return false
			}
			assign, ok := m.(*ast.AssignStmt)
			if !ok || assign.Tok != token.ASSIGN {
				return true
			}
			for _, lhs := range assign.Lhs {
				ident, ok := lhs.(*ast.Ident)
				if !ok {
					continue // index/selector targets are per-key state, not selections
				}
				obj := pass.Info.Uses[ident]
				v, ok := obj.(*types.Var)
				if !ok || v.IsField() {
					continue
				}
				// Declared before the loop => survives it => a selection.
				if v.Pos() < rng.Pos() {
					found = assign.Pos()
					return false
				}
			}
			return true
		})
		return true
	})
	return found
}

// hasOrderedCmp reports whether expr contains a <, <=, > or >= comparison.
func hasOrderedCmp(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				found = true
				return false
			}
		}
		return true
	})
	return found
}
