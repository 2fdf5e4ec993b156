package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// WireSafe guards the wire contract: codec v2 is the only encoding, for
// sockets and for the journal. Under simnet messages move as in-memory
// values, so a payload with no codec, or a field its codec cannot carry,
// "works" in every simulation and only fails once the same binary runs over
// tcpnet — the worst possible place to discover it. Three checks:
//
//   - every codec-registered struct type (wire/codec register/Register/
//     RegisterCodec) declared in the package under analysis must be
//     structurally encodable: no func or chan fields, no unexported fields
//     (a derived codec carries exported fields only, and
//     codec.CertifyLossless — the dynamic half of this contract — fills
//     only those, so unexported state exists under simnet and vanishes
//     over TCP unnoticed; the one exception is a transport.Recycler, whose
//     own unexported fields are the way back to its sender's free list and
//     are meant to stay home), no structs whose fields
//     are all unexported, and no non-empty interface fields (Enc.Value
//     dispatches on the concrete type; each implementation would need its
//     own registration that nothing enforces). Unnamed codec types
//     (primitives, slices, maps) have no declaration site to anchor to;
//     CertifyLossless covers them;
//   - every concrete in-module struct handed to transport.Env.Send must have
//     a codec registration for exactly the type sent (a *T does not ride
//     T's codec unless wire/codec's registerPointer gives it T's tag):
//     tcpnet drops what it cannot encode;
//   - every durable-store record type (internal/store.RegisterRecords) must
//     have one too, because WAL bodies are encoded with codec.Value: a
//     record without a codec is refused by Append/Snapshot at runtime —
//     after the state change it was meant to journal already happened. Such
//     a record is also structurally checked, so the defect is reported at
//     the type, not discovered at replay.
var WireSafe = &Analyzer{
	Name: "wiresafe",
	Doc:  "codec-registered types must be structurally encodable, and Env.Send payloads and store records must have codecs",
	Run:  runWireSafe,
}

// WireSet is the repo-wide set of codec-registered types and of
// durable-store record types, keyed by type string (object identity does
// not hold between a package loaded from source and the same package
// imported from export data).
type WireSet struct {
	codecs  map[string]types.Type
	records map[string]types.Type
}

// NewWireSet returns an empty set.
func NewWireSet() *WireSet {
	return &WireSet{codecs: map[string]types.Type{}, records: map[string]types.Type{}}
}

func wireKey(t types.Type) string { return types.TypeString(t, nil) }

// HasCodec reports whether exactly t has a codec registration.
func (w *WireSet) HasCodec(t types.Type) bool {
	_, ok := w.codecs[wireKey(t)]
	return ok
}

// CollectWire scans one package for codec registrations (wire/codec's
// register, registerPointer, Register and RegisterCodec, whose explicit
// prototype argument exists precisely so this pass can see the static type;
// the derived ones also panic at registration on a field they cannot carry)
// and store.RegisterRecords calls, and records the static types of their
// prototype arguments. The driver runs this over every package before any
// analyzer, so registrations made in one package (the codec package's init,
// the engine root) vouch for types declared in another.
func CollectWire(pkg *Package, ws *WireSet) {
	pass := &Pass{Package: pkg}
	add := func(set map[string]types.Type, arg ast.Expr) {
		if t := pkg.Info.TypeOf(arg); t != nil {
			set[wireKey(t)] = t
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch path := fn.Pkg().Path(); {
			case fn.Name() == "RegisterRecords" && strings.HasSuffix(path, "/store"):
				for _, arg := range call.Args { // variadic: every argument is a prototype
					add(ws.records, arg)
				}
			case strings.HasSuffix(path, "/wire/codec") && wireRegistrations[fn.Name()] && len(call.Args) > 1:
				add(ws.codecs, call.Args[1]) // (tag, prototype[, enc, dec])
			}
			return true
		})
	}
}

// wireRegistrations are wire/codec's registration functions.
var wireRegistrations = map[string]bool{"register": true, "registerPointer": true, "Register": true, "RegisterCodec": true}

// declaredHere returns, in stable order and once each, the named struct types
// of set (registered as T or *T) that the package under analysis declares;
// the others are checked when their own package runs.
func declaredHere(pass *Pass, set map[string]types.Type) []*types.Named {
	var out []*types.Named
	for _, k := range slices.Sorted(maps.Keys(set)) {
		named := namedStructOf(set[k])
		if named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pass.Path && !slices.Contains(out, named) {
			out = append(out, named)
		}
	}
	return out
}

func runWireSafe(pass *Pass) {
	if pass.Wire == nil {
		return
	}
	checkStruct := func(named *types.Named) {
		obj := named.Obj()
		checkCodecStruct(pass, obj.Name(), obj.Pos(), named.Underlying().(*types.Struct), map[string]bool{wireKey(named): true}, isRecycler(named))
	}
	for _, named := range declaredHere(pass, pass.Wire.codecs) {
		checkStruct(named)
	}
	for _, named := range declaredHere(pass, pass.Wire.records) {
		if pass.Wire.HasCodec(named) {
			continue // structurally checked above
		}
		pass.Reportf(named.Obj().Pos(),
			"%s is registered as a durable-store record but has no codec-v2 encoder; the WAL encodes bodies with codec.Value, so Append/Snapshot refuse it at runtime — add a codec.Register alongside RegisterRecords",
			types.TypeString(named, nil))
		checkStruct(named)
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

// hasOwnEncoding reports whether t (or *t) marshals itself, making
// field-level analysis moot: a codec carries it through that method
// (time.Time et al.).
func hasOwnEncoding(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "MarshalBinary")
	_, ok := obj.(*types.Func)
	return ok
}

// isRecycler reports whether *t has transport.Recycler's Recycle method.
func isRecycler(t *types.Named) bool {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, t.Obj().Pkg(), "Recycle")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// checkCodecStruct walks the fields of a codec-registered struct and reports
// anything a codec cannot carry losslessly. at is the position the finding
// is anchored to: the field declaration while inside the package under
// analysis, the outermost local field once the walk crosses into imported
// types (whose positions come from export data). keepsHome passes the
// struct's own unexported fields: it is a transport.Recycler, and they are
// its free-list bookkeeping.
func checkCodecStruct(pass *Pass, path string, at token.Pos, st *types.Struct, seen map[string]bool, keepsHome bool) {
	exported := 0
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Exported() {
			exported++
		}
	}
	if st.NumFields() > 0 && exported == 0 {
		pass.Reportf(at, "wire type %s has no exported fields; a codec carries exported fields only, so nothing of it crosses the wire", path)
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		fieldPath := path + "." + field.Name()
		fieldAt := at
		if field.Pkg() != nil && field.Pkg().Path() == pass.Path {
			fieldAt = field.Pos()
		}
		if !field.Exported() {
			if keepsHome {
				continue
			}
			pass.Reportf(fieldAt, "wire field %s is unexported; a codec carries exported fields only, so its state vanishes over tcpnet", fieldPath)
			continue
		}
		checkCodecType(pass, fieldPath, fieldAt, field.Type(), seen)
	}
}

// checkCodecType reports unencodable types reachable from a wire field.
func checkCodecType(pass *Pass, path string, at token.Pos, t types.Type, seen map[string]bool) {
	switch u := t.Underlying().(type) {
	case *types.Signature:
		pass.Reportf(at, "wire field %s has func type; no codec can encode functions", path)
	case *types.Chan:
		pass.Reportf(at, "wire field %s has chan type; no codec can encode channels", path)
	case *types.Interface:
		if !u.Empty() {
			pass.Reportf(at, "wire field %s is a non-empty interface; every concrete implementation needs its own codec registration — prefer a concrete type", path)
		}
	case *types.Pointer:
		checkCodecType(pass, path, at, u.Elem(), seen)
	case *types.Slice:
		checkCodecType(pass, path+"[]", at, u.Elem(), seen)
	case *types.Array:
		checkCodecType(pass, path+"[]", at, u.Elem(), seen)
	case *types.Map:
		checkCodecType(pass, path+"[key]", at, u.Key(), seen)
		checkCodecType(pass, path+"[value]", at, u.Elem(), seen)
	case *types.Struct:
		k := wireKey(t)
		if seen[k] {
			return
		}
		seen[k] = true
		if hasOwnEncoding(t) {
			return
		}
		checkCodecStruct(pass, path, at, u, seen, false)
	}
}
