// Package wiresafe is the expectation corpus for the wiresafe analyzer:
// unencodable fields in codec-registered wire types, and Env.Send payloads
// and store records without a codec, must be flagged; encodable registered
// types must not.
//
// (This corpus is loaded and type-checked by the analyzer harness, never
// executed, so the nil enc/dec funcs below are fine.)
package wiresafe

import (
	"time"

	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
)

// Clean round-trips losslessly: exported fields of encodable types.
type Clean struct {
	ID   string
	Vals []float64
	Tags map[string]string
}

type BadFunc struct {
	Name string
	Fn   func() // want "wire field BadFunc.Fn has func type"
}

type BadChan struct {
	Name string
	C    chan int // want "wire field BadChan.C has chan type"
}

type Dropped struct {
	Name  string
	count int // want "wire field Dropped.count is unexported; a codec carries exported fields only"
}

type Opaque struct { // want "wire type Opaque has no exported fields; a codec carries exported fields only"
	a, b int
}

type Handlerish interface{ Handle() }

type BadIface struct {
	Name string
	H    Handlerish // want "wire field BadIface.H is a non-empty interface"
}

// The walk is transitive: Outer is registered, the defect lives in Inner.
type Outer struct {
	In Inner
}

type Inner struct {
	OK string
	Fn func() // want "wire field Outer.In.Fn has func type"
}

// Stamped is clean even though time.Time has unexported fields: it
// marshals itself, so field-level analysis does not apply.
type Stamped struct {
	ID string
	At time.Time
}

// AnyPayload is clean: an empty interface field is the codec's opaque
// payload slot (Enc.Value; the concrete values carry their own codecs).
type AnyPayload struct {
	Kind string
	Body any
}

// Boxed is a transport.Recycler: its unexported field is the way back to its
// sender's free list, not wire state, so it is not flagged. A Recycle method
// that is not Recycler's exempts nothing (NotBoxed).
type Boxed struct {
	ID   string
	home *[]*Boxed
}

func (b *Boxed) Recycle() { *b.home = append(*b.home, b) }

type NotBoxed struct {
	ID   string
	home *[]*NotBoxed // want "wire field NotBoxed.home is unexported"
}

func (b *NotBoxed) Recycle(int) {}

func init() {
	codec.RegisterCodec(64, Clean{}, nil, nil)
	codec.RegisterCodec(65, BadFunc{}, nil, nil)
	codec.RegisterCodec(66, BadChan{}, nil, nil)
	codec.RegisterCodec(67, Dropped{}, nil, nil)
	codec.RegisterCodec(68, Opaque{}, nil, nil)
	codec.RegisterCodec(69, BadIface{}, nil, nil)
	codec.RegisterCodec(70, Outer{}, nil, nil)
	codec.RegisterCodec(71, Stamped{}, nil, nil)
	codec.RegisterCodec(72, AnyPayload{}, nil, nil)
	// Unnamed codec types (primitives, slices) have no declaration to
	// anchor findings to; the dynamic certification covers them.
	codec.RegisterCodec(73, []int32(nil), nil, nil)
	codec.RegisterCodec(75, Boxed{}, nil, nil)
	codec.RegisterCodec(76, NotBoxed{}, nil, nil)
}

// --- durable-store record registrations ---

// RecClean is a certified WAL record: a codec and a registration with the
// store.
type RecClean struct {
	LSN  uint64
	Name string
}

// RecNoCodec is registered as a record but has no codec-v2 encoder, so
// the store refuses to journal it — at runtime, after the mutation.
type RecNoCodec struct { // want "RecNoCodec is registered as a durable-store record but has no codec-v2 encoder"
	N int
}

// RecBad is a record without a codec whose structure is also hostile;
// both defects are reported at the declaration.
type RecBad struct { // want "RecBad is registered as a durable-store record but has no codec-v2 encoder"
	Name string
	C    chan int // want "wire field RecBad.C has chan type"
}

func init() {
	codec.RegisterCodec(74, RecClean{}, nil, nil)
	store.RegisterRecords(RecClean{}, RecNoCodec{}, RecBad{})
}

// --- Env.Send payloads ---

// NoCodec compiles and moves fine under simnet, but tcpnet has no encoder
// for it and drops the frame.
type NoCodec struct{ ID string }

func send(env transport.Env, to transport.Addr) {
	env.Send(to, Clean{ID: "ok"})
	env.Send(to, &Clean{ID: "ptr"})   // want "^\\*totoro/.*/wiresafe.Clean is sent over the wire but has no codec-v2 registration"
	env.Send(to, NoCodec{ID: "nope"}) // want "wiresafe.NoCodec is sent over the wire but has no codec-v2 registration"
	// Recycling is how a *T is delivered, not how it is encoded: only T is
	// registered, so the pointer is still reported.
	env.Send(to, Boxed{ID: "ok"})
	env.Send(to, &Boxed{ID: "ptr"}) // want "^\\*totoro/.*/wiresafe.Boxed is sent over the wire but has no codec-v2 registration"
}

func suppressedSend(env transport.Env, to transport.Addr) {
	//lint:ignore wiresafe corpus exemption: the embedding app registers the payload's codec at startup
	env.Send(to, NoCodec{ID: "later"})
}
