package totoro

import "totoro/internal/wire/codec"

// Codec-v2 registrations for the FL driver's own wire messages: roundStart
// ships the global model down the tree every round, updateAgg ships the
// partial aggregates up, and replicaMsg replicates master state to the leaf
// set. Each codec is derived from its type's declaration, so a field's
// position in the struct is its position in the frame. RegisterWire installs
// them.
//
// Tags are wire contract: never reuse or renumber.
const (
	tagAppSpec = codec.TagApp + iota
	tagAnnounce
	tagStart
	tagRoundStart
	tagUpdateAgg
	tagReplica
)

// tagMasterPing follows the durable records' block (durable.go), which had
// taken the tags after tagReplica before masterPing got a codec.
const tagMasterPing = tagWalReplica + 1

func registerCodecs() {
	codec.Register(tagAppSpec, AppSpec{})
	codec.Register(tagAnnounce, announceMsg{})
	codec.Register(tagStart, startMsg{})
	codec.Register(tagRoundStart, roundStart{})
	codec.Register(tagUpdateAgg, updateAgg{})
	codec.Register(tagReplica, replicaMsg{})
	codec.Register(tagMasterPing, masterPing{})
	registerWalCodecs()
}
