package totoro

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"totoro/internal/fl"
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
		name := reflect.TypeOf(msg).String()
		e := codec.NewEnc()
		e.Value(msg)
		if err := e.Err(); err != nil {
			t.Fatalf("%s: codec encode: %v", name, err)
		}
		d := codec.NewDec(append([]byte(nil), e.Bytes()...))
		got := d.Value()
		e.Free()
		if err := d.Err(); err != nil {
			t.Fatalf("%s: codec decode: %v", name, err)
		}
		if d.Rem() != 0 {
			t.Fatalf("%s: codec left %d trailing bytes", name, d.Rem())
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%s: codec round trip mutated the message:\n sent %#v\n got  %#v", name, msg, got)
		}
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
