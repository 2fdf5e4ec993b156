package totoro

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/multiring"
	"totoro/internal/pubsub"
	"totoro/internal/relay"
	"totoro/internal/ring"
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
	"totoro/internal/workload"
)

// TestEngineWireRoundTrip encodes every engine-level message type — with
// all fields populated — through codec.Value and checks it survives the
// trip bit-for-bit. The messages travel inside tcpnet frames as `any`, so a
// field an encoder forgets, a nil-vs-empty asymmetry or a concrete type
// missing from RegisterWire would only surface as a corrupted live
// deployment; this pins the contract at the codec level.
func TestEngineWireRoundTrip(t *testing.T) {
	RegisterWire()

	spec := AppSpec{
		ID:             NewAppID("wire-app", "test"),
		Name:           "wire-app",
		Sizes:          []int{4, 8, 3},
		InitParams:     []float64{0.25, -1.5, 3.75},
		Cfg:            fl.ClientConfig{LocalEpochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, ProxMu: 0.01},
		Participation:  0.8,
		TargetAccuracy: 0.92,
		MaxRounds:      12,
		Compressor:     "topk",
		TopK:           5,
		NoiseSigma:     0.001,
		ZoneRestricted: true,
		TreeFanout:     16,
		RoundDeadline:  2 * time.Second,
		Seed:           424242,
	}
	msgs := []any{
		spec,
		announceMsg{Spec: spec},
		startMsg{App: spec.ID},
		roundStart{
			App:           spec.ID,
			Round:         3,
			Sizes:         spec.Sizes,
			Params:        []float64{1, 2, 3},
			Cfg:           spec.Cfg,
			Participation: 0.5,
			Compressor:    "int8",
			TopK:          7,
			NoiseSigma:    0.002,
			Seed:          7,
		},
		updateAgg{
			Acc:   &fl.Accum{WeightedSum: []float64{0.5, 1.5}, Samples: 40, Count: 4},
			Bytes: 1234,
		},
		replicaMsg{
			Spec:    spec,
			Master:  ring.Contact{ID: spec.ID, Addr: transport.Addr("127.0.0.1:7001")},
			Epoch:   2,
			Round:   5,
			Global:  []float64{9, 8, 7},
			Points:  []workload.AccuracyPoint{{Time: time.Second, Round: 1, Accuracy: 0.4, Participants: 6}},
			Started: true,
			Done:    true,
			Reached: true,
			DoneAt:  90 * time.Second,
		},
		masterPing{App: spec.ID, From: "127.0.0.1:7002"},
	}
	for _, msg := range msgs {
		roundTripValue(t, msg)
	}
}

// roundTripValue encodes v through codec.Value and fails t unless it decodes
// back to exactly v with nothing left over.
func roundTripValue(t *testing.T, v any) {
	t.Helper()
	e := codec.NewEnc()
	e.Value(v)
	if err := e.Err(); err != nil {
		t.Fatalf("%T: codec encode: %v", v, err)
	}
	d := codec.NewDec(append([]byte(nil), e.Bytes()...))
	got := d.Value()
	e.Free()
	if err := d.Err(); err != nil {
		t.Fatalf("%T: codec decode: %v", v, err)
	}
	if d.Rem() != 0 {
		t.Fatalf("%T: codec left %d trailing bytes", v, d.Rem())
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%T: codec round trip mutated the message:\n sent %#v\n got  %#v", v, v, got)
	}
}

// A zero-valued accuracy point encodes in 11 bytes. Images whose points end
// the frame must decode: a length guard that assumes more bytes per point
// than the smallest point takes rejects five zero points as "length exceeds
// input".
func TestZeroPointImagesRoundTrip(t *testing.T) {
	RegisterWire()
	img := replicaMsg{Points: make([]workload.AccuracyPoint, 5)}
	for _, v := range []any{img, walMaster{Rep: img}, walSnapshot{Masters: []replicaMsg{img}}} {
		roundTripValue(t, v)
	}
}

// TestWireCodecLossless runs the codec package's randomized certification
// over the full registry — engine-internal tags plus the application tags
// RegisterWire adds — so every registered encoder provably carries every
// exported field. updateAgg's nil-Acc arm is not reachable by randomized
// fill (fillValue always populates pointers), so it is pinned explicitly.
func TestWireCodecLossless(t *testing.T) {
	RegisterWire()
	if err := codec.CertifyLossless(codec.Registered(), rand.New(rand.NewSource(2)), 16); err != nil {
		t.Fatal(err)
	}
	e := codec.NewEnc()
	defer e.Free()
	e.Value(updateAgg{Bytes: 99})
	d := codec.NewDec(e.Bytes())
	if got := d.Value(); d.Err() != nil || !reflect.DeepEqual(got, updateAgg{Bytes: 99}) {
		t.Fatalf("nil-Acc updateAgg round trip: %#v err=%v", got, d.Err())
	}
}

// goldenFrames is one hand-written instance of every registered wire and
// journal type, every field non-zero, plus the edge shapes a derived codec
// must lay out like the hand-written one did: nil and non-nil pointers,
// empty and non-empty slices, nested any payloads, the pointer forms pub/sub
// sends, and an image with five points. Keyed literals keep the instances
// independent of field order.
func goldenFrames() []any {
	id := func(n uint64) ids.ID { return ids.ID{Hi: 0x0123456789abcdef * n, Lo: 0xfedcba9876543210 ^ n} }
	c := func(n uint64) ring.Contact {
		return ring.Contact{ID: id(n), Addr: transport.Addr(fmt.Sprintf("10.0.0.%d:7000", n))}
	}
	cfg := pubsub.TreeConfig{MaxFanout: 8, AggTimeout: 3 * time.Second, Epoch: 4}
	spec := AppSpec{
		ID: id(1), Name: "golden", Sizes: []int{4, 300, -3}, InitParams: []float64{0.5, -1.25, math.Inf(1)},
		Cfg:           fl.ClientConfig{LocalEpochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, ProxMu: 0.01},
		Participation: 0.8, TargetAccuracy: 0.92, MaxRounds: 400, Compressor: "topk", TopK: 5, NoiseSigma: 0.001,
		ZoneRestricted: true, TreeFanout: 16, RoundDeadline: 2 * time.Second, MinParticipants: 3, Seed: -424242,
	}
	points := make([]workload.AccuracyPoint, 5)
	for i := range points {
		points[i] = workload.AccuracyPoint{Time: time.Duration(i+1) * time.Second, Round: i + 1, Accuracy: 0.1 * float64(i+1), Participants: 6 + i}
	}
	rep := replicaMsg{
		Spec: spec, Master: c(2), Epoch: 3, Round: 5, Global: []float64{9, -8, 7.5}, Points: points,
		Started: true, Done: true, Reached: true, DoneAt: 90 * time.Second,
	}
	start := roundStart{
		App: id(1), Round: 3, Sizes: spec.Sizes, Params: []float64{1, 2, 3}, Cfg: spec.Cfg,
		Participation: 0.5, Compressor: "int8", TopK: 7, NoiseSigma: 0.002, Seed: 7,
	}
	agg := updateAgg{Acc: &fl.Accum{WeightedSum: []float64{0.5, 1.5}, Samples: 40, Count: 4}, Bytes: 1234}
	mc := pubsub.Multicast{Topic: id(3), Epoch: 2, Seq: 300, Depth: 3, Object: start}
	up := pubsub.Upstream{Topic: id(4), Round: 9, From: c(5), Epoch: 1 << 40, Object: agg, Count: -3, Seq: 1 << 21}
	return []any{
		nil, true, -123456, int64(-1 << 40), uint64(1<<63 + 5), -3.25, "golden",
		[]byte{1, 2, 3}, []byte{}, []float64{1.5, -2, math.Inf(-1)}, []float64{},
		map[string]string{"b": "2", "a": "1", "": "empty"}, map[string]string{},
		codec.Float32s{1.5, -0.25}, codec.QDelta{Scale: 0.5, Levels: []int8{-127, 0, 5}},
		ring.Envelope{Key: id(6), Source: c(7), Hops: 3, Payload: "payload", Seq: 99},
		ring.Envelope{Key: id(6), Source: c(7), Hops: 1, Payload: mc, Seq: 100},
		ring.HopAck{Seq: 1 << 35},
		ring.JoinRequest{Joiner: c(8), Rows: [][]ring.Contact{{c(9), c(10)}, {}, {c(11)}}, Hops: 4},
		ring.JoinReply{Root: c(12), Rows: [][]ring.Contact{{c(13)}}, Leafset: []ring.Contact{c(14), c(15)}},
		ring.NodeJoined{Node: c(16)},
		ring.LeafsetRequest{},
		ring.LeafsetReply{From: c(17), Leafset: []ring.Contact{c(18)}},
		ring.LeafsetReply{From: c(17)},
		ring.Ping{From: c(19)},
		ring.Pong{From: c(20)},
		pubsub.JoinMsg{Topic: id(21), Subscriber: c(22), Forwarder: true},
		pubsub.Welcome{Topic: id(23), Parent: c(24), Cfg: cfg, Epoch: 5, LastSeq: 6},
		pubsub.CreateMsg{Topic: id(25), Creator: c(26), Cfg: cfg},
		pubsub.PublishMsg{Topic: id(27), Object: []float64{4, 5}},
		mc, &mc,
		pubsub.Multicast{Topic: id(3), Epoch: 2, Seq: 301, Depth: 1},
		up, &up,
		pubsub.Upstream{Topic: id(4), Round: 9, From: c(5), Epoch: 1, Object: updateAgg{Bytes: 99}, Count: 1, Seq: 2},
		pubsub.KeepAlive{Topic: id(28), Parent: c(29), Epoch: 7, LastSeq: 8},
		pubsub.McNack{Topic: id(30), Child: c(31), Missing: []uint64{1, 300, 1 << 40}},
		pubsub.LeaveMsg{Topic: id(32), Child: c(33)},
		multiring.Packet{Key: id(34), Scope: 1, SrcZone: 12, Hops: 2, Final: true, Payload: int64(7)},
		relay.Data{Dst: "dst", Origin: "origin", ID: 5, Seq: 6, TTL: 7, Visited: []transport.Addr{"a", "bb"}, Payload: "x"},
		relay.Ack{Seq: 8},
		relay.Advert{From: "from", J: map[transport.Addr]float64{"z": 1.5, "a": -2, "m": 0.25}},
		spec, announceMsg{Spec: spec}, startMsg{App: id(35)}, start, agg, updateAgg{Bytes: 99},
		rep, replicaMsg{Points: make([]workload.AccuracyPoint, 5)},
		masterPing{App: id(36), From: "10.0.0.36:7000"},
		walIdentity{Self: c(37)}, walSub{App: id(38), Restricted: true}, walUnsub{App: id(39)},
		walRound{App: id(40), Round: 41}, walMaster{Rep: rep}, walReplica{Rep: rep},
		walSnapshot{Self: c(42), Masters: []replicaMsg{rep, {Spec: spec}}, Replicas: []replicaMsg{rep},
			Subs: []walSub{{App: id(43), Restricted: true}, {App: id(44)}}},
	}
}

// goldenFrameHashes is the FNV-64a of every goldenFrames frame, recorded
// from the hand-written codecs the derived ones replaced, keyed by type and
// occurrence.
var goldenFrameHashes = map[string]uint64{
	"*pubsub.Multicast#0":   0x6a4b6c423cec3d9c,
	"*pubsub.Upstream#0":    0xea7150e28ee4c016,
	"<nil>#0":               0xf7f98db624175f18,
	"[]float64#0":           0x4abc36ec543d7f01,
	"[]float64#1":           0x744fb47f539f7c80,
	"[]uint8#0":             0xa939e3f1f01f9170,
	"[]uint8#1":             0x74531a7f53a25fa9,
	"bool#0":                0x7475157f53bf3d90,
	"codec.Float32s#0":      0xc3949161108e380f,
	"codec.QDelta#0":        0x90597a8e8c3f0e59,
	"float64#0":             0xa9cf17d9304238f7,
	"int#0":                 0x137fdd1d374a8e0a,
	"int64#0":               0x2e3cf354f3c6fa91,
	"map[string]string#0":   0x6274772f8f2bd516,
	"map[string]string#1":   0x7459e67f53a825fb,
	"multiring.Packet#0":    0x31ae7ef15ad8ff80,
	"pubsub.CreateMsg#0":    0x81e7c0d5c4efa4b3,
	"pubsub.JoinMsg#0":      0xde54faea6f498389,
	"pubsub.KeepAlive#0":    0x4b716864a5510b58,
	"pubsub.LeaveMsg#0":     0xa903aa223a1946ed,
	"pubsub.McNack#0":       0xb6ca0f962a7e4d3c,
	"pubsub.Multicast#0":    0x6a4b6c423cec3d9c,
	"pubsub.Multicast#1":    0x85331b294d66da4d,
	"pubsub.PublishMsg#0":   0xdaf4e37f86e0bd81,
	"pubsub.Upstream#0":     0xea7150e28ee4c016,
	"pubsub.Upstream#1":     0x63ca534934d43b34,
	"pubsub.Welcome#0":      0x3ed9acfd49a32d85,
	"relay.Ack#0":           0x74e8aa7f5421784d,
	"relay.Advert#0":        0xff172b39d0feb556,
	"relay.Data#0":          0xddcac7e3c1e85ab1,
	"ring.Envelope#0":       0x366294ad6fa05fbf,
	"ring.Envelope#1":       0xaeab779306effc91,
	"ring.HopAck#0":         0xbcf4b6e1b874a43b,
	"ring.JoinReply#0":      0x8ecf7fa3bcf1a62,
	"ring.JoinRequest#0":    0xa350a3f97b109b70,
	"ring.LeafsetReply#0":   0x30cf035200c972c8,
	"ring.LeafsetReply#1":   0x6ba986fad72251d0,
	"ring.LeafsetRequest#0": 0xf7f9a1b624178114,
	"ring.NodeJoined#0":     0x83d48630fd0598ec,
	"ring.Ping#0":           0xfd88825f3fc08e75,
	"ring.Pong#0":           0x2a02bd8a823acdef,
	"string#0":              0xdcaab7b68e082769,
	"totoro.AppSpec#0":      0x179cabc0d0c01f43,
	"totoro.announceMsg#0":  0x64ac68baac53e144,
	"totoro.masterPing#0":   0xa4b0c5c69d1b43c2,
	"totoro.replicaMsg#0":   0x1055fbd43e98cf5a,
	"totoro.replicaMsg#1":   0x1a437e0a3ebfd599,
	"totoro.roundStart#0":   0x396427b3882b2934,
	"totoro.startMsg#0":     0x20487dd9f2bcb06a,
	"totoro.updateAgg#0":    0x77e21dc639e59df5,
	"totoro.updateAgg#1":    0xccb2ad4cd3a6f7b2,
	"totoro.walIdentity#0":  0xb813c45546fb5c5,
	"totoro.walMaster#0":    0xad3cc12e0ec3d507,
	"totoro.walReplica#0":   0x72af9b85ac1194d,
	"totoro.walRound#0":     0xc760ccdb6c29ba21,
	"totoro.walSnapshot#0":  0x8cd46b10b778029b,
	"totoro.walSub#0":       0x866398d756069e97,
	"totoro.walUnsub#0":     0x810a7c0b84dc19b7,
	"uint64#0":              0x35cbc701f131d4f6,
}

// TestFramesAreGolden pins the bytes of every wire and journal frame: the
// socket and storage contract. A registered type without a golden instance
// fails it, so a new wire type lands with its bytes pinned.
func TestFramesAreGolden(t *testing.T) {
	RegisterWire()
	seen := map[string]int{}
	got := map[string]uint64{}
	for _, v := range goldenFrames() {
		name := fmt.Sprintf("%T", v)
		key := fmt.Sprintf("%s#%d", name, seen[name])
		seen[name]++
		e := codec.NewEnc()
		if err := codec.EncodeFrame(e, "10.0.0.99:7000", v); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		h := fnv.New64a()
		h.Write(e.Bytes())
		e.Free()
		got[key] = h.Sum64()
		if want, ok := goldenFrameHashes[key]; !ok || want != got[key] {
			t.Errorf("%s: frame hash %#x, golden %#x", key, got[key], want)
		}
	}
	for _, p := range codec.Registered() {
		if seen[fmt.Sprintf("%T", p)] == 0 {
			t.Errorf("registered type %T has no golden frame", p)
		}
	}
	if t.Failed() {
		keys := slices.Sorted(maps.Keys(got))
		for _, k := range keys {
			t.Logf("%q: %#x,", k, got[k])
		}
	}
}

// The hottest frames go through the derived codecs without allocating: a
// multicast round start and an upstream partial, in the pointer form pub/sub
// sends, are sized and encoded for free. Decoding allocates what the
// hand-written decoders it replaced did (the ceilings), the sender address
// included.
func TestHotFramesAllocate(t *testing.T) {
	RegisterWire()
	c := ring.Contact{ID: NewAppID("alloc", "test"), Addr: "10.0.0.1:7000"}
	start := roundStart{App: c.ID, Round: 3, Sizes: []int{4, 8, 3}, Params: make([]float64, 2410), Compressor: "none"}
	agg := updateAgg{Bytes: 1234, Acc: &fl.Accum{WeightedSum: make([]float64, 2410), Samples: 40, Count: 4}}
	up := &pubsub.Upstream{Topic: c.ID, Round: 9, From: c, Epoch: 1, Count: 3, Seq: 2, Object: agg}
	for _, msg := range []any{&pubsub.Multicast{Topic: c.ID, Epoch: 2, Seq: 300, Depth: 3, Object: start}, up} {
		e := codec.NewEnc()
		if n := testing.AllocsPerRun(50, func() { codec.FrameSize("10.0.0.2:7000", msg) }); n != 0 {
			t.Errorf("FrameSize(%T) allocates %.0f times", msg, n)
		}
		if n := testing.AllocsPerRun(50, func() { e.Reset(); codec.EncodeFrame(e, "10.0.0.2:7000", msg) }); n != 0 {
			t.Errorf("EncodeFrame(%T) allocates %.0f times", msg, n)
		}
		e.Free()
	}
	img := replicaMsg{
		Spec:   AppSpec{ID: c.ID, Name: "img", Sizes: []int{4, 8, 3}, InitParams: make([]float64, 50)},
		Master: c, Global: make([]float64, 50), Points: make([]workload.AccuracyPoint, 7),
	}
	for _, tc := range []struct {
		msg  any
		most float64
	}{
		{ring.HopAck{Seq: 7}, 1},
		{ring.HopAck{Seq: 1 << 30}, 2},
		{*up, 6},
		{walMaster{Rep: img}, 11},
	} {
		e := codec.NewEnc()
		if err := codec.EncodeFrame(e, "10.0.0.2:7000", tc.msg); err != nil {
			t.Fatal(err)
		}
		frame := append([]byte(nil), e.Bytes()...)
		e.Free()
		if n := testing.AllocsPerRun(50, func() { codec.DecodeFrame(frame) }); n > tc.most {
			t.Errorf("decoding %T allocates %.0f times, the hand-written decoder %.0f", tc.msg, n, tc.most)
		}
	}
}
