// Package wiresafe is the expectation corpus for the wiresafe analyzer:
// Env.Send payloads without a codec for exactly the type sent must be
// flagged; registered payloads must not. What a registered type may hold is
// refused by the codec at registration, so it has no case here.
//
// (This corpus is loaded and type-checked by the analyzer harness, never
// executed, so the nil enc/dec funcs below are fine.)
package wiresafe

import (
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
)

type Clean struct {
	ID   string
	Vals []float64
}

// Boxed is a transport.Recycler; only Boxed, not *Boxed, is registered.
type Boxed struct {
	ID   string
	home *[]*Boxed
}

func (b *Boxed) Recycle() { *b.home = append(*b.home, b) }

func init() {
	codec.RegisterCodec(64, Clean{}, nil, nil)
	codec.Register(75, Boxed{})
}

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
