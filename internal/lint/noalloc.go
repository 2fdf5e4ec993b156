package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc turns the hot path's alloc-free discipline from a benchmark
// observation into a compile-time contract. A function marked
//
//	//vet:noalloc
//
// in its doc comment must not allocate: the analyzer flags every
// allocation site in its body — make/new, map and slice literals,
// &composite escapes, append that grows beyond caller-owned storage
// (self-append `s = append(s, ...)` and its stdlib cousins
// binary.Append*/slices.Grow, assigned back to their first argument, are
// the sanctioned idiom), interface boxing of value arguments, variadic
// argument slices, closures and bound-method values, string
// concatenation and string<->[]byte conversions, go statements — plus any
// call whose callee cannot be proven allocation-free: callees must be
// marked themselves, be on the known-clean stdlib list (math, math/bits,
// sync/atomic, in-place sort/slices helpers, math/rand draws, ...), or
// have an allocation-free summary computed over the whole-program call
// graph. Dynamic calls the graph cannot resolve are flagged: an invisible
// target is not a clean target.
//
// Two qualifiers relax the body check while still vouching to callers:
//
//	//vet:noalloc amortized  — the function may grow internal reusable
//	                           storage (workspace ensure/grow paths); its
//	                           steady-state cost is zero, so callers may
//	                           treat it as clean, but its body is exempt.
//	//vet:noalloc cold       — the function only runs on error paths
//	                           (codec decode failures); never on the hot
//	                           path, so its allocations are irrelevant.
//
// Allocation sites inside panic(...) arguments are always exempt: a
// failing assertion is allowed to build its message.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions marked //vet:noalloc must not allocate on any non-panic path",
	Run:  runNoAlloc,
}

// noallocMode is a parsed //vet:noalloc directive.
type noallocMode int

const (
	noallocNone      noallocMode = iota
	noallocStrict                // body checked site by site
	noallocAmortized             // body exempt: grows reusable storage only
	noallocCold                  // body exempt: error paths only
)

// noallocMarks parses (and caches) every //vet:noalloc directive in the
// program. Unknown qualifiers parse as strict — the analyzer reports them
// separately, and strict is the reading that cannot hide a violation.
func (g *CallGraph) noallocMarks() map[*types.Func]noallocMode {
	if g.noalloc != nil {
		return g.noalloc
	}
	marks := map[*types.Func]noallocMode{}
	for fn, node := range g.nodes {
		mode, _ := parseNoallocDoc(node.Decl)
		if mode != noallocNone {
			marks[fn] = mode
		}
	}
	g.noalloc = marks
	return marks
}

// parseNoallocDoc extracts a //vet:noalloc directive from a declaration's
// doc comment. badQual is non-empty when the qualifier is not recognized.
func parseNoallocDoc(decl *ast.FuncDecl) (mode noallocMode, badQual string) {
	if decl.Doc == nil {
		return noallocNone, ""
	}
	for _, c := range decl.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//vet:noalloc")
		if !ok {
			continue
		}
		switch strings.TrimSpace(rest) {
		case "":
			return noallocStrict, ""
		case "amortized":
			return noallocAmortized, ""
		case "cold":
			return noallocCold, ""
		default:
			return noallocStrict, strings.TrimSpace(rest)
		}
	}
	return noallocNone, ""
}

// randDrawMethods are the math/rand(/v2) methods that draw without
// allocating (Perm and the constructors are excluded).
var randDrawMethods = map[string]bool{
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint32": true, "Uint64": true, "UintN": true, "Uint64N": true, "UN": true,
	"Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true, "Shuffle": true,
}

// syncCleanMethods are sync primitives that do not allocate per call.
// Pool.Get/Put are included deliberately: the pool IS the amortization
// mechanism the hot paths use.
var syncCleanMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "Do": true, "Wait": true, "Add": true, "Done": true,
	"Get": true, "Put": true,
}

// slicesCleanFuncs are the in-place / read-only slices helpers.
var slicesCleanFuncs = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true,
	"BinarySearch": true, "BinarySearchFunc": true,
	"Index": true, "IndexFunc": true, "Contains": true, "ContainsFunc": true,
	"Min": true, "MinFunc": true, "Max": true, "MaxFunc": true,
	"Reverse": true, "Equal": true, "EqualFunc": true, "Compare": true,
}

// pureExternalFn reports whether an out-of-program callee is on the
// known-clean list: it neither allocates nor retains its arguments.
func pureExternalFn(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	switch pkg.Path() {
	case "math", "math/bits", "sync/atomic", "sort":
		return true
	case "math/rand", "math/rand/v2":
		return recv != nil && randDrawMethods[fn.Name()]
	case "encoding/binary":
		// Put*/Uvarint/byte-order methods write into caller storage; the
		// Append* family is handled as append-style, not here.
		return !strings.HasPrefix(fn.Name(), "Append")
	case "sync":
		return recv != nil && syncCleanMethods[fn.Name()]
	case "time":
		return recv != nil // Duration/Time arithmetic on values
	case "slices":
		return slicesCleanFuncs[fn.Name()]
	case "reflect":
		return fn.Name() == "TypeOf" // reads the interface's type word
	}
	return false
}

// appendStyleFn reports whether an external callee follows the append
// contract: it may grow and return its first argument, so it is clean
// exactly when the result is assigned back to that argument.
func appendStyleFn(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "encoding/binary":
		return strings.HasPrefix(fn.Name(), "Append")
	case "slices":
		return fn.Name() == "Grow" || fn.Name() == "Clip" || strings.HasPrefix(fn.Name(), "Append")
	}
	return false
}

// allocSummaries computes (and caches) whether each declared function may
// allocate on a non-panic path, to a fixed point over the call graph.
// Marked functions are their own proof and do not propagate their bodies;
// bodyless declarations (assembly stubs) are conservatively may-alloc
// unless marked — the annotation is the vouching mechanism.
func (g *CallGraph) allocSummaries() map[*types.Func]bool {
	if g.allocs != nil {
		return g.allocs
	}
	marks := g.noallocMarks()
	may := map[*types.Func]bool{}
	for fn, node := range g.nodes {
		if node.Decl.Body == nil {
			may[fn] = marks[fn] == noallocNone
			continue
		}
		may[fn] = len(directAllocSites(node.Pkg, node.Decl.Body)) > 0
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range g.nodes {
			if may[fn] {
				continue
			}
			for _, site := range node.Out {
				if site.PanicArg {
					continue
				}
				if callAllocates(g, marks, may, site) {
					may[fn] = true
					changed = true
					break
				}
			}
		}
	}
	g.allocs = may
	return may
}

// callAllocates classifies one call site against marks, summaries, and
// the stdlib tables.
func callAllocates(g *CallGraph, marks map[*types.Func]noallocMode, may map[*types.Func]bool, site *CallSite) bool {
	if site.Callee != nil {
		fn := site.Callee.Fn.Origin()
		if marks[fn] != noallocNone {
			return false
		}
		return may[fn]
	}
	if site.Fn != nil {
		if node := g.Node(site.Fn); node != nil {
			// In-graph but resolved without an edge (interface method with
			// a declaration, e.g.): fall back to its own summary.
			fn := site.Fn.Origin()
			return marks[fn] == noallocNone && may[fn]
		}
		// Append-style externals are vouched here; whether the result is
		// assigned back is the body walk's concern.
		return !pureExternalFn(site.Fn) && !appendStyleFn(site.Fn)
	}
	// Unresolved dynamic call: an invisible target is not a clean target.
	return true
}

func runNoAlloc(pass *Pass) {
	g := pass.Graph
	if g == nil {
		g = BuildCallGraph([]*Package{pass.Package})
	}
	marks := g.noallocMarks()
	sums := g.allocSummaries()
	for _, node := range g.nodes {
		if node.Pkg != pass.Package {
			continue
		}
		if _, bad := parseNoallocDoc(node.Decl); bad != "" {
			pass.Reportf(node.Decl.Pos(),
				"unknown //vet:noalloc qualifier %q (want nothing, \"amortized\", or \"cold\"); treating as strict", bad)
		}
		if marks[node.Fn.Origin()] != noallocStrict || node.Decl.Body == nil {
			continue
		}
		for _, s := range directAllocSites(node.Pkg, node.Decl.Body) {
			pass.Reportf(s.pos, "//vet:noalloc function %s: %s", node.Fn.Name(), s.what)
		}
		for _, site := range node.Out {
			if site.PanicArg {
				continue
			}
			if !callAllocates(g, marks, sums, site) {
				continue
			}
			switch {
			case site.Callee != nil:
				pass.Reportf(site.Call.Pos(),
					"//vet:noalloc function %s calls %s, which may allocate (mark the callee //vet:noalloc if it belongs on the hot path)",
					node.Fn.Name(), site.Callee.Fn.Name())
			case site.Fn != nil:
				pass.Reportf(site.Call.Pos(),
					"//vet:noalloc function %s calls %s.%s, which is not on the allocation-free list",
					node.Fn.Name(), site.Fn.Pkg().Name(), site.Fn.Name())
			default:
				pass.Reportf(site.Call.Pos(),
					"//vet:noalloc function %s makes a dynamic call whose target cannot be proven allocation-free",
					node.Fn.Name())
			}
		}
	}
}

// allocFinding is one allocation site found by the body walk.
type allocFinding struct {
	pos  token.Pos
	what string
}

// directAllocSites walks one body and returns its syntactic allocation
// sites: everything except call-into-callee classification, which the
// caller handles through the graph. Panic(...) argument subtrees are
// skipped wholesale.
func directAllocSites(pkg *Package, body *ast.BlockStmt) []allocFinding {
	var out []allocFinding
	report := func(pos token.Pos, what string) {
		out = append(out, allocFinding{pos, what})
	}

	// Pre-passes: which append-style calls are assigned back to their own
	// first argument, and which selector expressions are call targets
	// (so method VALUES can be told apart from method CALLS).
	selfAssigned := map[*ast.CallExpr]bool{}
	calledFuns := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			calledFuns[ast.Unparen(x.Fun)] = true
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i := range x.Lhs {
				call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				lr, ar := rootIdent(x.Lhs[i]), rootIdent(call.Args[0])
				if lr == nil || ar == nil {
					continue
				}
				lo, ao := pkg.Info.ObjectOf(lr), pkg.Info.ObjectOf(ar)
				if lo != nil && lo == ao {
					selfAssigned[call] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(pkg, x) {
				return false // assertion messages may allocate
			}
			if ident, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[ident].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						report(x.Pos(), "make allocates")
					case "new":
						report(x.Pos(), "new allocates")
					case "append":
						if !selfAssigned[x] {
							report(x.Pos(), "append may grow beyond caller-owned storage; assign it back: s = append(s, ...)")
						}
					}
					return true
				}
			}
			if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() {
				if convAllocates(pkg, x) {
					report(x.Pos(), "string<->byte-slice conversion copies and allocates")
				}
				return true
			}
			if fn := calleeOf(pkg, x); fn != nil && appendStyleFn(fn) && !selfAssigned[x] {
				report(x.Pos(), "append-style call must be assigned back to its first argument")
			}
			reportCallArgAllocs(pkg, x, report)
		case *ast.FuncLit:
			report(x.Pos(), "function literal allocates a closure")
			return false // one finding per closure, not one per capture
		case *ast.CompositeLit:
			t := pkg.Info.TypeOf(x)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					report(x.Pos(), "map literal allocates")
					return false
				case *types.Slice:
					report(x.Pos(), "slice literal allocates")
					return false
				}
			}
			// Value struct/array literals live on the stack; descend for
			// allocating elements.
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pkg.Info.TypeOf(x)) {
				report(x.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(pkg.Info.TypeOf(x.Lhs[0])) {
				report(x.Pos(), "string concatenation allocates")
			}
		case *ast.SelectorExpr:
			if s := pkg.Info.Selections[x]; s != nil && s.Kind() == types.MethodVal && !calledFuns[x] {
				report(x.Pos(), "method value allocates a bound-method closure")
			}
		case *ast.GoStmt:
			report(x.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
	return out
}

// reportCallArgAllocs flags variadic argument slices and interface boxing
// of value arguments at one call site.
func reportCallArgAllocs(pkg *Package, call *ast.CallExpr, report func(token.Pos, string)) {
	sig, _ := pkg.Info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
		if len(call.Args) > fixed && !call.Ellipsis.IsValid() {
			report(call.Args[fixed].Pos(), "variadic call allocates its argument slice")
		}
	}
	for i, arg := range call.Args {
		if i >= fixed {
			break // variadic part: the slice finding covers it
		}
		if isIfaceType(sig.Params().At(i).Type()) && boxes(pkg, arg) {
			report(arg.Pos(), "argument boxes a value into an interface")
		}
	}
}

// boxes reports whether passing arg to an interface parameter heap-boxes
// it: true for non-pointer-shaped concrete values, false for nil,
// interfaces, and pointer-shaped kinds (which fit the interface word).
func boxes(pkg *Package, arg ast.Expr) bool {
	tv, ok := pkg.Info.Types[ast.Unparen(arg)]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		b := tv.Type.Underlying().(*types.Basic)
		return b.Kind() != types.UnsafePointer && b.Kind() != types.UntypedNil
	}
	return true
}

func isIfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// convAllocates reports whether a conversion copies into fresh storage:
// string <-> []byte/[]rune in either direction.
func convAllocates(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	dst, src := pkg.Info.TypeOf(call), pkg.Info.TypeOf(call.Args[0])
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
