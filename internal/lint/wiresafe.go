package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WireSafe guards the one part of the wire contract only static analysis
// can see: every concrete in-module struct handed to transport.Env.Send must
// have a codec registration for exactly the type sent (a *T does not ride
// T's codec unless wire/codec's registerPointer gives it T's tag). Under
// simnet messages move as in-memory values, so a payload with no codec
// "works" in every simulation and only fails once the same binary runs over
// tcpnet, which drops what it cannot encode. What a registered type may
// hold is the codec's to refuse at registration (derive in
// wire/codec/plan.go), and a durable-store record's codec is
// store.RegisterRecords' (DESIGN.md §4.5).
var WireSafe = &Analyzer{
	Name: "wiresafe",
	Doc:  "Env.Send payloads must have codecs",
	Run:  runWireSafe,
}

// WireSet is the repo-wide set of codec-registered types, keyed by type
// string (object identity does not hold between a package loaded from
// source and the same package imported from export data).
type WireSet struct {
	codecs map[string]bool
}

// NewWireSet returns an empty set.
func NewWireSet() *WireSet {
	return &WireSet{codecs: map[string]bool{}}
}

func wireKey(t types.Type) string { return types.TypeString(t, nil) }

// HasCodec reports whether exactly t has a codec registration.
func (w *WireSet) HasCodec(t types.Type) bool {
	return w.codecs[wireKey(t)]
}

// CollectWire scans one package for codec registrations (wire/codec's
// register, registerPointer, Register and RegisterCodec, whose explicit
// prototype argument exists precisely so this pass can see the static type)
// and records the static types of their prototype arguments. The driver
// runs this over every package before any analyzer, so registrations made
// in one package (the codec package's init, the engine root) vouch for
// types sent from another.
func CollectWire(pkg *Package, ws *WireSet) {
	pass := &Pass{Package: pkg}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "/wire/codec") ||
				!wireRegistrations[fn.Name()] || len(call.Args) < 2 {
				return true
			}
			if t := pkg.Info.TypeOf(call.Args[1]); t != nil { // (tag, prototype[, enc, dec])
				ws.codecs[wireKey(t)] = true
			}
			return true
		})
	}
}

// wireRegistrations are wire/codec's registration functions.
var wireRegistrations = map[string]bool{"register": true, "registerPointer": true, "Register": true, "RegisterCodec": true}

func runWireSafe(pass *Pass) {
	if pass.Wire == nil {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Name() != "Send" || len(call.Args) != 2 {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !isTransportEnv(recv.Type()) {
				return true
			}
			t := pass.Info.TypeOf(call.Args[1])
			if t == nil {
				return true
			}
			named := namedStructOf(t)
			if named == nil || named.Obj().Pkg() == nil {
				return true // interface pass-through, basics, slices: not checkable here
			}
			if !strings.HasPrefix(named.Obj().Pkg().Path(), "totoro") {
				return true
			}
			if !pass.Wire.HasCodec(t) {
				pass.Reportf(call.Args[1].Pos(),
					"%s is sent over the wire but has no codec-v2 registration; add a codec.Register for it (moves in memory under simnet, dropped by tcpnet)",
					types.TypeString(t, nil))
			}
			return true
		})
	}
}

// isTransportEnv reports whether t is the transport.Env interface.
func isTransportEnv(t types.Type) bool {
	s := types.TypeString(t, nil)
	return strings.HasSuffix(s, "/transport.Env") || s == "transport.Env"
}

// namedStructOf unwraps pointers and returns t as a named struct type, or
// nil when t is anything else.
func namedStructOf(t types.Type) *types.Named {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}
