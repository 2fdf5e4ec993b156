package lint

import (
	"go/ast"
	"go/types"
)

// The call graph is the whole-program substrate the cross-package
// analyzers (reentry, maporder, noalloc, unused) share. It is built once per
// driver run over every loaded package — which, thanks to the loader's
// source-first importing, all live in ONE go/types universe, so nodes are
// keyed by *types.Func identity and a call in pubsub resolves to the very
// object ring declares.
//
// Resolution is deliberately conservative in both directions:
//
//   - static calls and method calls on concrete types resolve exactly;
//   - a method call through an interface resolves to EVERY in-program
//     named type whose method set satisfies the interface (may-call
//     over-approximation), except methods named Send or After — those are
//     the transport's asynchronous boundary by contract (the work happens
//     on a later event-loop turn), so resolving them into concrete
//     transports would manufacture false synchronous cycles;
//   - a call through a struct field of function type resolves to every
//     function the program ever binds to that field (composite literals
//     and assignments) — the pubsub.Handlers callback pattern;
//   - calls through plain function-typed values (locals, parameters)
//     produce an unresolved site with no callee: a known, documented gap
//     that keeps the graph finite and cheap.
//
// Call sites inside function literals that are handed to an asynchronous
// scheduler (Env.After, fl.Go, fl.ForEach, ...) are marked Async: they
// execute on a later tick or another goroutine, so synchronous-reachability
// queries skip them.

// FuncNode is one function or method declared in a loaded package.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out lists every call site lexically inside Decl (including sites in
	// nested function literals, which carry the Async flag).
	Out []*CallSite
}

// CallSite is one call expression attributed to its enclosing declaration.
type CallSite struct {
	Call   *ast.CallExpr
	Caller *FuncNode
	// Callee is the resolved in-program target (nil when the target is
	// outside the loaded program or unresolvable). A dynamic call with
	// several possible targets yields several CallSites.
	Callee *FuncNode
	// Fn is the callee's types object: the concrete function for resolved
	// edges, the interface method for unresolved dynamic calls, nil for
	// unresolved func-value calls.
	Fn *types.Func
	// Dynamic marks interface-method and func-field dispatch.
	Dynamic bool
	// Owner is the package declaring the interface or callback struct a
	// dynamic call goes through. Analyzers use it to recognize a package's
	// own upcall points (ring's App.Deliver, pubsub's Handlers.OnDeliver).
	Owner *types.Package
	// Async marks calls that do not run synchronously under the caller:
	// sites inside async-scheduled function literals, and calls to the
	// Send/After transport boundary.
	Async bool
	// PanicArg marks calls inside a panic(...) argument: a path that never
	// returns, which allocation analysis treats as cold.
	PanicArg bool
}

// CallGraph is the whole-program graph plus per-analyzer fact caches.
type CallGraph struct {
	Pkgs []*Package

	nodes map[*types.Func]*FuncNode
	sites map[*ast.CallExpr][]*CallSite
	named []*types.Named // every in-program non-interface named type

	implCache map[*types.Func][]*FuncNode // interface method -> implementations
	fieldBind map[string][]*FuncNode      // "pkg.Type.Field" -> bound funcs

	reachCache map[*types.Func]map[*types.Func]bool // sync-reachability closures
	sinks      map[*types.Func]sinkMask             // maporder summaries
	allocs     map[*types.Func]bool                 // noalloc summaries
	noalloc    map[*types.Func]noallocMode          // parsed //vet:noalloc marks
	entries    []*FuncNode                          // dispatch entries (reentry)
	unused     map[types.Object]string              // unused findings, by name
}

// asyncSchedulerNames are callables whose function-valued arguments run
// asynchronously: on a later virtual-time tick (After, AfterFunc,
// schedule, transport.Every) or on a supervised worker
// goroutine (fl.Go, fl.ForEach). A literal passed to one — directly or through a local
// variable, as in the `tick := func(){...}; env.After(d, tick)` idiom —
// has its call sites marked Async.
var asyncSchedulerNames = map[string]bool{
	"After":     true,
	"AfterFunc": true,
	"Every":     true,
	"Go":        true,
	"ForEach":   true,
	"schedule":  true,
}

// asyncBoundaryMethods are interface methods that are asynchronous by the
// transport contract: Env.Send enqueues, Env.After schedules. They are
// never resolved into concrete transport implementations — the simulator's
// synchronous handoff inside Send is an implementation detail, not part of
// the caller's synchronous extent.
var asyncBoundaryMethods = map[string]bool{
	"Send":  true,
	"After": true,
}

// BuildCallGraph constructs the graph over pkgs. All packages must come
// from one Loader (one type universe).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Pkgs:       pkgs,
		nodes:      map[*types.Func]*FuncNode{},
		sites:      map[*ast.CallExpr][]*CallSite{},
		implCache:  map[*types.Func][]*FuncNode{},
		fieldBind:  map[string][]*FuncNode{},
		reachCache: map[*types.Func]map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn.Origin()] = &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
		if pkg.Pkg == nil {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				g.named = append(g.named, named)
			}
		}
	}
	for _, pkg := range pkgs {
		g.collectFieldBindings(pkg)
	}
	for _, n := range g.nodes {
		if n.Decl.Body != nil {
			g.buildEdges(n)
		}
	}
	return g
}

// Node returns the graph node for fn (nil when fn has no in-program
// declaration). Instantiated generics are normalized to their origin.
func (g *CallGraph) Node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// SitesFor returns the resolved call sites for one call expression (nil
// for calls outside the graph, conversions, and builtins).
func (g *CallGraph) SitesFor(call *ast.CallExpr) []*CallSite {
	return g.sites[call]
}

// fieldKey names a struct field stably: "pkgpath.Type.Field".
func fieldKey(named *types.Named, field string) string {
	obj := named.Obj()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	return pkg + "." + obj.Name() + "." + field
}

// namedOf unwraps pointers and aliases down to a *types.Named (nil
// otherwise).
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// collectFieldBindings records every function the package binds to a
// struct field of function type, via keyed/positional composite literals
// and plain assignments. Function literals bound to fields are skipped
// (their bodies are attributed to the enclosing declaration instead).
func (g *CallGraph) collectFieldBindings(pkg *Package) {
	bind := func(named *types.Named, field string, fn *types.Func) {
		if named == nil || fn == nil {
			return
		}
		if node := g.Node(fn); node != nil {
			key := fieldKey(named, field)
			g.fieldBind[key] = append(g.fieldBind[key], node)
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				named := namedOf(pkg.Info.TypeOf(x))
				if named == nil {
					return true
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range x.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							bind(named, key.Name, funcValueOf(pkg, kv.Value))
						}
						continue
					}
					if i < st.NumFields() {
						bind(named, st.Field(i).Name(), funcValueOf(pkg, elt))
					}
				}
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					return true
				}
				for i, lhs := range x.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					s := pkg.Info.Selections[sel]
					if s == nil || s.Kind() != types.FieldVal {
						continue
					}
					bind(namedOf(s.Recv()), sel.Sel.Name, funcValueOf(pkg, x.Rhs[i]))
				}
			}
			return true
		})
	}
}

// funcValueOf resolves an expression used as a function value to its
// declared function or method (nil for literals and non-functions).
func funcValueOf(pkg *Package, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// asyncLiterals finds the function literals inside body whose call sites
// run asynchronously: literals passed to an async scheduler directly, or
// through a variable that is (anywhere in body) passed to one.
func asyncLiterals(pkg *Package, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	lits := map[*ast.FuncLit]bool{}
	vars := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if !asyncSchedulerNames[name] {
			return true
		}
		for _, arg := range call.Args {
			switch a := ast.Unparen(arg).(type) {
			case *ast.FuncLit:
				lits[a] = true
			case *ast.Ident:
				if obj := pkg.Info.Uses[a]; obj != nil {
					vars[obj] = true
				}
			}
		}
		return true
	})
	if len(vars) == 0 {
		return lits
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				ident, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[ident]
				if obj == nil {
					obj = pkg.Info.Uses[ident]
				}
				if obj == nil || !vars[obj] {
					continue
				}
				if lit, ok := ast.Unparen(x.Rhs[i]).(*ast.FuncLit); ok {
					lits[lit] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i >= len(x.Values) {
					break
				}
				obj := pkg.Info.Defs[name]
				if obj == nil || !vars[obj] {
					continue
				}
				if lit, ok := ast.Unparen(x.Values[i]).(*ast.FuncLit); ok {
					lits[lit] = true
				}
			}
		}
		return true
	})
	return lits
}

// buildEdges walks one declaration's body and records a CallSite for every
// call expression, resolving static, interface, and field-callback targets.
func (g *CallGraph) buildEdges(n *FuncNode) {
	pkg := n.Pkg
	async := asyncLiterals(pkg, n.Decl.Body)

	// Manual stack walk so each call knows its enclosing literals and
	// whether it sits inside a panic(...) argument.
	var litStack []*ast.FuncLit
	var panicDepth int
	var stack []ast.Node
	inAsync := func() bool {
		for _, l := range litStack {
			if async[l] {
				return true
			}
		}
		return false
	}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if nd == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				litStack = litStack[:len(litStack)-1]
			}
			if call, ok := top.(*ast.CallExpr); ok && isPanicCall(pkg, call) {
				panicDepth--
			}
			return true
		}
		stack = append(stack, nd)
		if lit, ok := nd.(*ast.FuncLit); ok {
			litStack = append(litStack, lit)
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPanicCall(pkg, call) {
			panicDepth++
			return true
		}
		g.resolveCall(n, call, inAsync(), panicDepth > 0)
		return true
	})
}

// isPanicCall reports whether call is the builtin panic.
func isPanicCall(pkg *Package, call *ast.CallExpr) bool {
	ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pkg.Info.Uses[ident].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// resolveCall classifies one call expression and appends its sites.
func (g *CallGraph) resolveCall(n *FuncNode, call *ast.CallExpr, inAsync, inPanic bool) {
	pkg := n.Pkg
	add := func(s *CallSite) {
		s.Call, s.Caller, s.Async, s.PanicArg = call, n, s.Async || inAsync, inPanic
		n.Out = append(n.Out, s)
		g.sites[call] = append(g.sites[call], s)
	}
	// Conversions are CallExprs syntactically but not calls.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if fn := calleeOf(pkg, call); fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				// Interface dispatch.
				if asyncBoundaryMethods[fn.Name()] {
					add(&CallSite{Fn: fn, Dynamic: true, Owner: fn.Pkg(), Async: true})
					return
				}
				impls := g.implementers(fn)
				if len(impls) == 0 {
					add(&CallSite{Fn: fn, Dynamic: true, Owner: fn.Pkg()})
					return
				}
				for _, impl := range impls {
					add(&CallSite{Callee: impl, Fn: impl.Fn, Dynamic: true, Owner: fn.Pkg()})
				}
				return
			}
		}
		// Static call (function, method on a concrete type, or method
		// expression). Callee nil when declared outside the program.
		add(&CallSite{Callee: g.Node(fn), Fn: fn})
		return
	}
	// Call through a struct field of function type: the callback pattern.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			named := namedOf(s.Recv())
			if named == nil {
				return
			}
			owner := named.Obj().Pkg()
			targets := g.fieldBind[fieldKey(named, sel.Sel.Name)]
			if len(targets) == 0 {
				add(&CallSite{Dynamic: true, Owner: owner})
				return
			}
			for _, t := range targets {
				add(&CallSite{Callee: t, Fn: t.Fn, Dynamic: true, Owner: owner})
			}
		}
	}
	// Remaining shapes (func-typed locals/params, builtins) stay edgeless.
}

// calleeOf resolves a call's callee object (nil for indirect calls,
// builtins, and conversions). Like calleeFunc but Pass-free, so the graph
// builder can use it.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// implementers resolves an interface method to every in-program named type
// that satisfies the interface, returning the graph nodes of the concrete
// methods. Results are cached per interface method.
func (g *CallGraph) implementers(ifaceMethod *types.Func) []*FuncNode {
	if impls, ok := g.implCache[ifaceMethod]; ok {
		return impls
	}
	var impls []*FuncNode
	iface, _ := ifaceMethod.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if iface != nil {
		for _, named := range g.named {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			sel := types.NewMethodSet(ptr).Lookup(ifaceMethod.Pkg(), ifaceMethod.Name())
			if sel == nil {
				continue
			}
			if mf, ok := sel.Obj().(*types.Func); ok {
				if node := g.Node(mf); node != nil {
					impls = append(impls, node)
				}
			}
		}
	}
	g.implCache[ifaceMethod] = impls
	return impls
}

// SyncReachable returns the set of functions reachable from fn over
// synchronous edges, fn included. The closure is cached — reentry queries
// it once per dispatch entry.
func (g *CallGraph) SyncReachable(fn *types.Func) map[*types.Func]bool {
	fn = fn.Origin()
	if r, ok := g.reachCache[fn]; ok {
		return r
	}
	reach := map[*types.Func]bool{fn: true}
	work := []*types.Func{fn}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		node := g.nodes[cur]
		if node == nil {
			continue
		}
		for _, site := range node.Out {
			if site.Async || site.Callee == nil {
				continue
			}
			next := site.Callee.Fn.Origin()
			if !reach[next] {
				reach[next] = true
				work = append(work, next)
			}
		}
	}
	g.reachCache[fn] = reach
	return reach
}

// Sinks computes (and caches) the whole-program map-order sink summaries:
// for every declared function, the order-sensitive effects it performs
// directly or through any synchronous OR asynchronous call chain. (Async
// edges propagate too: scheduling one timer per map key still leaks
// iteration order into the event queue.) Merge sinks do not propagate
// through calls — a callee folding floats into its own locals is
// order-independent from the caller's perspective.
//
// Out-of-program callees contribute nothing here; the stdlib's
// order-sensitive entry points (math/rand draws, send-shaped methods) are
// classified name-based at the call site by directSink, and the rest of
// the stdlib — including the sort/slices sorts, which take map-derived
// data and return it order-laundered — is summary-neutral by design.
func (g *CallGraph) Sinks() map[*types.Func]sinkMask {
	if g.sinks != nil {
		return g.sinks
	}
	direct := map[*types.Func]sinkMask{}
	for fn, node := range g.nodes {
		if node.Decl.Body == nil {
			direct[fn] = 0
			continue
		}
		mask := sinkMask(0)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			mask |= directSinkInfo(node.Pkg, n)
			return true
		})
		direct[fn] = mask
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range g.nodes {
			mask := direct[fn]
			for _, site := range node.Out {
				if site.Callee == nil {
					continue
				}
				mask |= direct[site.Callee.Fn.Origin()] &^ sinkMerge
			}
			if mask != direct[fn] {
				direct[fn] = mask
				changed = true
			}
		}
	}
	g.sinks = direct
	return direct
}
