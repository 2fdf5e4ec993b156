package codec

import (
	"totoro/internal/multiring"
	"totoro/internal/pubsub"
	"totoro/internal/relay"
	"totoro/internal/ring"
)

// Engine-internal message codecs, each derived from its type's declaration.
// The certification test round-trips randomized instances to prove no field
// is dropped.
func init() {
	// Overlay (Pastry-style ring).
	register(tagEnvelope, ring.Envelope{})
	register(tagHopAck, ring.HopAck{})
	register(tagJoinRequest, ring.JoinRequest{})
	register(tagJoinReply, ring.JoinReply{})
	register(tagNodeJoined, ring.NodeJoined{})
	register(tagLeafsetRequest, ring.LeafsetRequest{})
	register(tagLeafsetReply, ring.LeafsetReply{})
	register(tagPing, ring.Ping{})
	register(tagPong, ring.Pong{})

	// Forest (pub/sub trees). Multicast and Upstream also go out as pointers
	// from the sender's free list (transport.Recycler): same tag, same bytes,
	// decoded as values.
	register(tagPSJoin, pubsub.JoinMsg{})
	register(tagPSWelcome, pubsub.Welcome{})
	register(tagPSCreate, pubsub.CreateMsg{})
	register(tagPSPublish, pubsub.PublishMsg{})
	register(tagPSMulticast, pubsub.Multicast{})
	registerPointer(tagPSMulticast, (*pubsub.Multicast)(nil))
	register(tagPSUpstream, pubsub.Upstream{})
	registerPointer(tagPSUpstream, (*pubsub.Upstream)(nil))
	register(tagPSKeepAlive, pubsub.KeepAlive{})
	register(tagPSMcNack, pubsub.McNack{})
	register(tagPSLeave, pubsub.LeaveMsg{})

	// Multi-ring packets.
	register(tagMRPacket, multiring.Packet{})

	// Relay frames (bandit-routed data plane).
	register(tagRelayData, relay.Data{})
	register(tagRelayAck, relay.Ack{})
	register(tagRelayAdvert, relay.Advert{})
}
