package totoro

import "sync"

var wireOnce sync.Once

// RegisterWire registers a codec for every message type an Engine can put
// on the wire or in its journal (wire_codec.go, durable.go), enabling
// deployment over internal/transport/tcpnet. Call once per process before
// creating TCP-backed engines. A custom Broadcast/Aggregate payload type
// outside the codec's primitives (string, int, float64, []float64, ...)
// must install its own codec with codec.Register, or Send drops it.
func RegisterWire() { wireOnce.Do(registerCodecs) }
