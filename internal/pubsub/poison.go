//go:build poisonrecycle

package pubsub

import (
	"math"

	"totoro/internal/ids"
)

// Built with -tags poisonrecycle, Recycle overwrites every envelope it hands
// back with sentinels, so a read after the last delivery meets a topic, round
// and object no tree has, instead of silently the next message's fields.
func init() {
	topic := ids.ID{Hi: math.MaxUint64, Lo: math.MaxUint64}
	recycledUpstream = Upstream{
		Topic: topic, Round: math.MinInt32, Epoch: math.MaxUint64,
		Object: recycled{}, Count: math.MinInt32, Seq: math.MaxUint64,
	}
	recycledMulticast = Multicast{
		Topic: topic, Epoch: math.MaxUint64, Seq: math.MaxUint64,
		Depth: math.MinInt32, Object: recycled{},
	}
}

// recycled is the object of a poisoned envelope: no combiner or handler
// accepts it.
type recycled struct{}
