package codec

import (
	"sort"
	"time"

	"totoro/internal/ids"
	"totoro/internal/multiring"
	"totoro/internal/pubsub"
	"totoro/internal/relay"
	"totoro/internal/ring"
	"totoro/internal/transport"
)

// Field helpers shared by the message codecs.

// ID appends a 128-bit identifier as 16 little-endian bytes.
func (e *Enc) ID(id ids.ID) {
	e.Uint64(id.Hi)
	e.Uint64(id.Lo)
}

// ID reads a 128-bit identifier.
func (d *Dec) ID() ids.ID {
	return ids.ID{Hi: d.Uint64(), Lo: d.Uint64()}
}

// Addr appends a transport address.
func (e *Enc) Addr(a transport.Addr) { e.String(string(a)) }

// Addr reads a transport address.
func (d *Dec) Addr() transport.Addr { return transport.Addr(d.String()) }

// Contact appends a ring contact (ID + address).
func (e *Enc) Contact(c ring.Contact) {
	e.ID(c.ID)
	e.Addr(c.Addr)
}

// Contact reads a ring contact.
func (d *Dec) Contact() ring.Contact {
	return ring.Contact{ID: d.ID(), Addr: d.Addr()}
}

// Contacts appends a length-prefixed contact slice.
func (e *Enc) Contacts(cs []ring.Contact) {
	e.Uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.Contact(c)
	}
}

// Contacts reads a length-prefixed contact slice.
func (d *Dec) Contacts() []ring.Contact {
	n := d.sliceLen(17) // 16-byte ID + 1-byte length of an empty addr
	if n == 0 {
		return nil
	}
	out := make([]ring.Contact, n)
	for i := range out {
		out[i] = d.Contact()
	}
	return out
}

func (e *Enc) contactRows(rows [][]ring.Contact) {
	e.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		e.Contacts(r)
	}
}

func (d *Dec) contactRows() [][]ring.Contact {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([][]ring.Contact, n)
	for i := range out {
		out[i] = d.Contacts()
	}
	return out
}

func (e *Enc) addrs(as []transport.Addr) {
	e.Uvarint(uint64(len(as)))
	for _, a := range as {
		e.Addr(a)
	}
}

func (d *Dec) addrs() []transport.Addr {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]transport.Addr, n)
	for i := range out {
		out[i] = d.Addr()
	}
	return out
}

func (e *Enc) uint64s(v []uint64) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Uvarint(x)
	}
}

func (d *Dec) uint64s() []uint64 {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.Uvarint()
	}
	return out
}

// Engine-internal message codecs. Each encodes every exported field of
// its type; the certification test round-trips randomized instances to
// prove no field is dropped.

func init() {
	// Overlay (Pastry-style ring).
	register(tagEnvelope, ring.Envelope{},
		func(e *Enc, v any) {
			m := v.(ring.Envelope)
			e.ID(m.Key)
			e.Contact(m.Source)
			e.Int(m.Hops)
			e.Uvarint(m.Seq)
			e.Value(m.Payload)
		},
		func(d *Dec) any {
			return ring.Envelope{Key: d.ID(), Source: d.Contact(), Hops: d.Int(), Seq: d.Uvarint(), Payload: d.Value()}
		})
	register(tagHopAck, ring.HopAck{},
		func(e *Enc, v any) { e.Uvarint(v.(ring.HopAck).Seq) },
		func(d *Dec) any { return ring.HopAck{Seq: d.Uvarint()} })
	register(tagJoinRequest, ring.JoinRequest{},
		func(e *Enc, v any) {
			m := v.(ring.JoinRequest)
			e.Contact(m.Joiner)
			e.contactRows(m.Rows)
			e.Int(m.Hops)
		},
		func(d *Dec) any {
			return ring.JoinRequest{Joiner: d.Contact(), Rows: d.contactRows(), Hops: d.Int()}
		})
	register(tagJoinReply, ring.JoinReply{},
		func(e *Enc, v any) {
			m := v.(ring.JoinReply)
			e.Contact(m.Root)
			e.contactRows(m.Rows)
			e.Contacts(m.Leafset)
		},
		func(d *Dec) any {
			return ring.JoinReply{Root: d.Contact(), Rows: d.contactRows(), Leafset: d.Contacts()}
		})
	register(tagNodeJoined, ring.NodeJoined{},
		func(e *Enc, v any) { e.Contact(v.(ring.NodeJoined).Node) },
		func(d *Dec) any { return ring.NodeJoined{Node: d.Contact()} })
	register(tagLeafsetRequest, ring.LeafsetRequest{},
		func(e *Enc, v any) {},
		func(d *Dec) any { return ring.LeafsetRequest{} })
	register(tagLeafsetReply, ring.LeafsetReply{},
		func(e *Enc, v any) {
			m := v.(ring.LeafsetReply)
			e.Contact(m.From)
			e.Contacts(m.Leafset)
		},
		func(d *Dec) any { return ring.LeafsetReply{From: d.Contact(), Leafset: d.Contacts()} })
	register(tagPing, ring.Ping{},
		func(e *Enc, v any) { e.Contact(v.(ring.Ping).From) },
		func(d *Dec) any { return ring.Ping{From: d.Contact()} })
	register(tagPong, ring.Pong{},
		func(e *Enc, v any) { e.Contact(v.(ring.Pong).From) },
		func(d *Dec) any { return ring.Pong{From: d.Contact()} })

	// Forest (pub/sub trees).
	register(tagPSJoin, pubsub.JoinMsg{},
		func(e *Enc, v any) {
			m := v.(pubsub.JoinMsg)
			e.ID(m.Topic)
			e.Contact(m.Subscriber)
			e.Bool(m.Forwarder)
		},
		func(d *Dec) any {
			return pubsub.JoinMsg{Topic: d.ID(), Subscriber: d.Contact(), Forwarder: d.Bool()}
		})
	register(tagPSWelcome, pubsub.Welcome{},
		func(e *Enc, v any) {
			m := v.(pubsub.Welcome)
			e.ID(m.Topic)
			e.Contact(m.Parent)
			e.treeConfig(m.Cfg)
			e.Uvarint(m.Epoch)
			e.Uvarint(m.LastSeq)
		},
		func(d *Dec) any {
			return pubsub.Welcome{Topic: d.ID(), Parent: d.Contact(), Cfg: d.treeConfig(), Epoch: d.Uvarint(), LastSeq: d.Uvarint()}
		})
	register(tagPSCreate, pubsub.CreateMsg{},
		func(e *Enc, v any) {
			m := v.(pubsub.CreateMsg)
			e.ID(m.Topic)
			e.Contact(m.Creator)
			e.treeConfig(m.Cfg)
		},
		func(d *Dec) any {
			return pubsub.CreateMsg{Topic: d.ID(), Creator: d.Contact(), Cfg: d.treeConfig()}
		})
	register(tagPSPublish, pubsub.PublishMsg{},
		func(e *Enc, v any) {
			m := v.(pubsub.PublishMsg)
			e.ID(m.Topic)
			e.Value(m.Object)
		},
		func(d *Dec) any { return pubsub.PublishMsg{Topic: d.ID(), Object: d.Value()} })
	// Multicast and Upstream also go out as pointers from the sender's free
	// list (transport.Recycler): same tag, same bytes, decoded as values.
	register(tagPSMulticast, pubsub.Multicast{},
		func(e *Enc, v any) {
			m := v.(pubsub.Multicast)
			e.multicast(&m)
		},
		func(d *Dec) any {
			return pubsub.Multicast{Topic: d.ID(), Epoch: d.Uvarint(), Seq: d.Uvarint(), Depth: d.Int(), Object: d.Value()}
		})
	registerPointer(tagPSMulticast, (*pubsub.Multicast)(nil),
		func(e *Enc, v any) { e.multicast(v.(*pubsub.Multicast)) })
	register(tagPSUpstream, pubsub.Upstream{},
		func(e *Enc, v any) {
			m := v.(pubsub.Upstream)
			e.upstream(&m)
		},
		func(d *Dec) any {
			return pubsub.Upstream{Topic: d.ID(), Round: d.Int(), From: d.Contact(), Epoch: d.Uvarint(), Count: d.Int(), Seq: d.Uvarint(), Object: d.Value()}
		})
	registerPointer(tagPSUpstream, (*pubsub.Upstream)(nil),
		func(e *Enc, v any) { e.upstream(v.(*pubsub.Upstream)) })
	register(tagPSKeepAlive, pubsub.KeepAlive{},
		func(e *Enc, v any) {
			m := v.(pubsub.KeepAlive)
			e.ID(m.Topic)
			e.Contact(m.Parent)
			e.Uvarint(m.Epoch)
			e.Uvarint(m.LastSeq)
		},
		func(d *Dec) any {
			return pubsub.KeepAlive{Topic: d.ID(), Parent: d.Contact(), Epoch: d.Uvarint(), LastSeq: d.Uvarint()}
		})
	register(tagPSMcNack, pubsub.McNack{},
		func(e *Enc, v any) {
			m := v.(pubsub.McNack)
			e.ID(m.Topic)
			e.Contact(m.Child)
			e.uint64s(m.Missing)
		},
		func(d *Dec) any {
			return pubsub.McNack{Topic: d.ID(), Child: d.Contact(), Missing: d.uint64s()}
		})
	register(tagPSLeave, pubsub.LeaveMsg{},
		func(e *Enc, v any) {
			m := v.(pubsub.LeaveMsg)
			e.ID(m.Topic)
			e.Contact(m.Child)
		},
		func(d *Dec) any { return pubsub.LeaveMsg{Topic: d.ID(), Child: d.Contact()} })

	// Multi-ring packets.
	register(tagMRPacket, multiring.Packet{},
		func(e *Enc, v any) {
			m := v.(multiring.Packet)
			e.ID(m.Key)
			e.Int(int(m.Scope))
			e.Uvarint(m.SrcZone)
			e.Int(m.Hops)
			e.Bool(m.Final)
			e.Value(m.Payload)
		},
		func(d *Dec) any {
			return multiring.Packet{
				Key: d.ID(), Scope: multiring.Scope(d.Int()), SrcZone: d.Uvarint(),
				Hops: d.Int(), Final: d.Bool(), Payload: d.Value(),
			}
		})

	// Relay frames (bandit-routed data plane).
	register(tagRelayData, relay.Data{},
		func(e *Enc, v any) {
			m := v.(relay.Data)
			e.Addr(m.Dst)
			e.Addr(m.Origin)
			e.Uvarint(m.ID)
			e.Uvarint(m.Seq)
			e.Int(m.TTL)
			e.addrs(m.Visited)
			e.Value(m.Payload)
		},
		func(d *Dec) any {
			return relay.Data{
				Dst: d.Addr(), Origin: d.Addr(), ID: d.Uvarint(), Seq: d.Uvarint(),
				TTL: d.Int(), Visited: d.addrs(), Payload: d.Value(),
			}
		})
	register(tagRelayAck, relay.Ack{},
		func(e *Enc, v any) { e.Uvarint(v.(relay.Ack).Seq) },
		func(d *Dec) any { return relay.Ack{Seq: d.Uvarint()} })
	register(tagRelayAdvert, relay.Advert{},
		func(e *Enc, v any) {
			m := v.(relay.Advert)
			e.Addr(m.From)
			e.Uvarint(uint64(len(m.J)))
			keys := make([]transport.Addr, 0, len(m.J))
			for k := range m.J {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				e.Addr(k)
				e.Float64(m.J[k])
			}
		},
		func(d *Dec) any {
			a := relay.Advert{From: d.Addr()}
			n := d.sliceLen(9) // 1-byte empty addr + 8-byte float
			if n == 0 {
				return a
			}
			a.J = make(map[transport.Addr]float64, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				k := d.Addr()
				a.J[k] = d.Float64()
			}
			return a
		})
}

func (e *Enc) multicast(m *pubsub.Multicast) {
	e.ID(m.Topic)
	e.Uvarint(m.Epoch)
	e.Uvarint(m.Seq)
	e.Int(m.Depth)
	e.Value(m.Object)
}

func (e *Enc) upstream(m *pubsub.Upstream) {
	e.ID(m.Topic)
	e.Int(m.Round)
	e.Contact(m.From)
	e.Uvarint(m.Epoch)
	e.Int(m.Count)
	e.Uvarint(m.Seq)
	e.Value(m.Object)
}

// treeConfig encodes pubsub.TreeConfig (fanout + aggregation deadline +
// root generation of the multicast stream).
func (e *Enc) treeConfig(c pubsub.TreeConfig) {
	e.Int(c.MaxFanout)
	e.Varint(int64(c.AggTimeout))
	e.Uvarint(c.Epoch)
}

func (d *Dec) treeConfig() pubsub.TreeConfig {
	return pubsub.TreeConfig{MaxFanout: d.Int(), AggTimeout: time.Duration(d.Varint()), Epoch: d.Uvarint()}
}
