package codec

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"unsafe"

	"totoro/internal/ids"
	"totoro/internal/transport"
)

// A plan is the codec of one type, derived from its declaration once, at
// registration: one op per field, exported fields only, in declaration
// order, with nested structs flattened into their parent's list. Encoding,
// sizing and decoding walk the ops over the value's memory; reflection runs
// only while the plan is built, on the map paths and to allocate.
//
// The layout rule, by kind:
//   - ids.ID: its Hi and Lo halves as fixed 8-byte little-endian words;
//   - int and int64 kinds (time.Duration, ...): zigzag varint;
//   - uint64: uvarint; float64: 8 little-endian bytes; bool: 1 byte;
//   - string kinds: uvarint length, then the bytes;
//   - []byte, []int8, []float32, []float64: one bulk slab (Enc.Float64s, ...);
//   - any other slice: uvarint length, then its elements;
//   - a map with string-kind keys: uvarint length, then its pairs in sorted
//     key order;
//   - a pointer: a presence byte, then the element;
//   - an empty interface: Enc.Value;
//   - a struct: its fields in order.
//
// An empty slice or map decodes as nil.
type plan struct {
	ops  []op
	size uintptr // the value's size in memory: a slice element's stride
	min  int     // the fewest bytes an encoded value takes
}

type opKind uint8

const (
	opID opKind = iota
	opInt
	opInt64
	opUint64
	opFloat64
	opBool
	opString
	opBytes
	opInt8s
	opFloat32s
	opFloat64s
	opSlice
	opMap
	opPointer
	opAny
)

// op codes the field at offset off of the value a plan walks.
type op struct {
	kind opKind
	off  uintptr
	elem *plan        // opSlice, opPointer: the element; opMap: the key
	val  *plan        // opMap: the value
	typ  reflect.Type // opSlice, opMap: the field's type; opPointer: the element's
}

var idType = reflect.TypeFor[ids.ID]()

var recyclerType = reflect.TypeFor[transport.Recycler]()

// derive builds the plan of t, reached from the registered type through the
// types on onPath (none when t is the registered type). A field no codec
// can carry panics, named by its path from the registered type; so does an
// unexported field, whose state would exist under simnet and vanish over a
// socket, and a type that contains itself.
func derive(t reflect.Type, path string, onPath []reflect.Type) *plan {
	pl := &plan{size: t.Size()}
	pl.add(t, 0, path, onPath)
	return pl
}

func (pl *plan) add(t reflect.Type, off uintptr, path string, onPath []reflect.Type) {
	if slices.Contains(onPath, t) {
		panic(fmt.Sprintf("codec: %s refers back to %v; a plan cannot contain itself", path, t))
	}
	// A registered transport.Recycler's own unexported fields are the way
	// back to its sender's free list, and stay home.
	keepsHome := len(onPath) == 0 && reflect.PointerTo(t).Implements(recyclerType)
	onPath = append(onPath, t)
	o, min := op{off: off, typ: t}, 1
	switch t.Kind() {
	case reflect.Struct:
		if t == idType {
			o.kind, min = opID, 16
			break
		}
		n, hidden := len(pl.ops), ""
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				pl.add(f.Type, off+f.Offset, path+"."+f.Name, onPath)
			} else if hidden == "" && !keepsHome {
				hidden = path + "." + f.Name
			}
		}
		if len(pl.ops) == n && t.NumField() > 0 {
			panic(fmt.Sprintf("codec: %s is a %v, whose fields are all unexported; nothing of it would cross the wire", path, t))
		}
		if hidden != "" {
			panic(fmt.Sprintf("codec: %s is unexported; a codec carries exported fields only, so its state would not cross the wire", hidden))
		}
		return
	case reflect.Int:
		o.kind = opInt
	case reflect.Int64:
		o.kind = opInt64
	case reflect.Uint64:
		o.kind = opUint64
	case reflect.Float64:
		o.kind, min = opFloat64, 8
	case reflect.Bool:
		o.kind = opBool
	case reflect.String:
		o.kind = opString
	case reflect.Slice:
		switch t.Elem().Kind() {
		case reflect.Uint8:
			o.kind = opBytes
		case reflect.Int8:
			o.kind = opInt8s
		case reflect.Float32:
			o.kind = opFloat32s
		case reflect.Float64:
			o.kind = opFloat64s
		default:
			if o.kind, o.elem = opSlice, derive(t.Elem(), path+"[]", onPath); o.elem.min == 0 {
				panic(fmt.Sprintf("codec: %s is a slice of %v, which encodes in zero bytes", path, t.Elem()))
			}
		}
	case reflect.Map:
		if t.Key().Kind() != reflect.String {
			panic(fmt.Sprintf("codec: %s is a map keyed by %v; only string keys have an encoding order", path, t.Key()))
		}
		o.kind, o.elem, o.val = opMap, derive(t.Key(), path+"[key]", onPath), derive(t.Elem(), path+"[value]", onPath)
	case reflect.Pointer:
		o.kind, o.elem, o.typ = opPointer, derive(t.Elem(), path, onPath), t.Elem()
	case reflect.Interface:
		if t.NumMethod() != 0 {
			panic(fmt.Sprintf("codec: %s is the non-empty interface %v; Enc.Value carries only an empty one", path, t))
		}
		o.kind = opAny
	default:
		panic(fmt.Sprintf("codec: %s has type %v, which no codec can carry", path, t))
	}
	pl.ops = append(pl.ops, o)
	pl.min += min
}

// sliceHeader is the memory layout of every slice type.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// encode appends (in counting mode: counts) the value at p.
//
//vet:noalloc
func (pl *plan) encode(e *Enc, p unsafe.Pointer) {
	for i := range pl.ops {
		o := &pl.ops[i]
		f := unsafe.Add(p, o.off)
		switch o.kind {
		case opID:
			e.ID(*(*ids.ID)(f))
		case opInt:
			e.Int(*(*int)(f))
		case opInt64:
			e.Varint(*(*int64)(f))
		case opUint64:
			e.Uvarint(*(*uint64)(f))
		case opFloat64:
			e.Float64(*(*float64)(f))
		case opBool:
			e.Bool(*(*bool)(f))
		case opString:
			e.String(*(*string)(f))
		case opBytes:
			e.ByteSlice(*(*[]byte)(f))
		case opInt8s:
			e.Int8s(*(*[]int8)(f))
		case opFloat32s:
			e.Float32s(*(*[]float32)(f))
		case opFloat64s:
			e.Float64s(*(*[]float64)(f))
		case opSlice:
			s := (*sliceHeader)(f)
			e.Uvarint(uint64(s.len))
			for j := 0; j < s.len; j++ {
				o.elem.encode(e, unsafe.Add(s.data, uintptr(j)*o.elem.size))
			}
		case opMap:
			e.encodeMap(o, *(*unsafe.Pointer)(f))
		case opPointer:
			q := *(*unsafe.Pointer)(f)
			e.Bool(q != nil)
			if q != nil {
				o.elem.encode(e, q)
			}
		case opAny:
			e.Value(*(*any)(f))
		}
	}
}

// encodeMap writes the map m (the map itself, not the field holding it) in
// sorted key order, so equal maps encode to equal bytes. Reflection
// allocates here; no hot frame carries a map.
//
//vet:noalloc cold
func (e *Enc) encodeMap(o *op, m unsafe.Pointer) {
	mv := reflect.NewAt(o.typ, unsafe.Pointer(&m)).Elem()
	keys := mv.MapKeys()
	slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.String(), b.String()) })
	k, v := reflect.New(o.typ.Key()), reflect.New(o.typ.Elem())
	e.Uvarint(uint64(len(keys)))
	for _, key := range keys {
		k.Elem().Set(key)
		v.Elem().Set(mv.MapIndex(key))
		o.elem.encode(e, k.UnsafePointer())
		o.val.encode(e, v.UnsafePointer())
	}
}

// decode reads one value into the memory at p. It writes every field it
// covers, so p may hold an earlier value.
func (pl *plan) decode(d *Dec, p unsafe.Pointer) {
	for i := range pl.ops {
		o := &pl.ops[i]
		f := unsafe.Add(p, o.off)
		switch o.kind {
		case opID:
			*(*ids.ID)(f) = d.ID()
		case opInt:
			*(*int)(f) = d.Int()
		case opInt64:
			*(*int64)(f) = d.Varint()
		case opUint64:
			*(*uint64)(f) = d.Uvarint()
		case opFloat64:
			*(*float64)(f) = d.Float64()
		case opBool:
			*(*bool)(f) = d.Bool()
		case opString:
			*(*string)(f) = d.String()
		case opBytes:
			*(*[]byte)(f) = d.ByteSlice()
		case opInt8s:
			*(*[]int8)(f) = d.Int8s()
		case opFloat32s:
			*(*[]float32)(f) = d.Float32s()
		case opFloat64s:
			*(*[]float64)(f) = d.Float64s()
		case opSlice:
			s := (*sliceHeader)(f)
			*s = sliceHeader{}
			if n := d.sliceLen(o.elem.min); n > 0 {
				reflect.NewAt(o.typ, f).Elem().Grow(n) // one allocation, as make
				s.len, s.cap = n, n
				for j := 0; j < n; j++ {
					o.elem.decode(d, unsafe.Add(s.data, uintptr(j)*o.elem.size))
				}
			}
		case opMap:
			m := reflect.NewAt(o.typ, f).Elem()
			m.SetZero()
			if n := d.sliceLen(o.elem.min + o.val.min); n > 0 {
				m.Set(reflect.MakeMapWithSize(o.typ, n))
				k, v := reflect.New(o.typ.Key()), reflect.New(o.typ.Elem())
				for j := 0; j < n && d.err == nil; j++ {
					o.elem.decode(d, k.UnsafePointer())
					o.val.decode(d, v.UnsafePointer())
					m.SetMapIndex(k.Elem(), v.Elem())
				}
			}
		case opPointer:
			*(*unsafe.Pointer)(f) = nil
			if d.Bool() {
				q := reflect.New(o.typ).UnsafePointer()
				o.elem.decode(d, q)
				*(*unsafe.Pointer)(f) = q
			}
		case opAny:
			*(*any)(f) = d.Value()
		}
	}
}

// eface is the memory layout of an empty interface.
type eface struct{ typ, data unsafe.Pointer }

// encodeValue encodes v by ent's plan: the plan of v's type or, for a
// pointer form, of the type v points to.
//
//vet:noalloc
func (ent *entry) encodeValue(e *Enc, v any) {
	ef := (*eface)(unsafe.Pointer(&v))
	if ent.direct {
		ent.plan.encode(e, unsafe.Pointer(&ef.data))
		return
	}
	ent.plan.encode(e, ef.data)
}

// decodeValue reads one value of ent's type and boxes it in one allocation,
// as returning it from a hand-written decoder would.
func (ent *entry) decodeValue(d *Dec) any {
	typ := (*eface)(unsafe.Pointer(&ent.proto)).typ
	if ent.word {
		// Boxed through a uint64, as the compiler boxes an 8-byte scalar:
		// values below 256 share static memory and allocate nothing.
		v := any(ent.plan.ops[0].word(d))
		(*eface)(unsafe.Pointer(&v)).typ = typ
		return v
	}
	t := reflect.TypeOf(ent.proto)
	p := reflect.New(t).UnsafePointer()
	ent.plan.decode(d, p)
	if ent.direct {
		return reflect.NewAt(t, p).Elem().Interface()
	}
	return *(*any)(unsafe.Pointer(&eface{typ: typ, data: p}))
}

// pointerShaped reports whether an interface holds a t in its data word
// itself (a pointer, a map, a struct of one such field) rather than a
// pointer to it: the zero value then boxes to a nil data word.
func pointerShaped(t reflect.Type) bool {
	z := reflect.Zero(t).Interface()
	return (*eface)(unsafe.Pointer(&z)).data == nil
}

// isWord reports whether pl is one 8-byte scalar (ring.HopAck, int, ...).
func (pl *plan) isWord() bool {
	if len(pl.ops) != 1 || pl.size != 8 {
		return false
	}
	k := pl.ops[0].kind
	return k == opInt || k == opInt64 || k == opUint64 || k == opFloat64
}

// word reads the bits of an isWord plan's value.
func (o *op) word(d *Dec) uint64 {
	switch o.kind {
	case opInt, opInt64:
		return uint64(d.Varint())
	case opUint64:
		return d.Uvarint()
	}
	return d.Uint64()
}
