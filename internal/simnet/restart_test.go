package simnet

import (
	"testing"
	"time"

	"totoro/internal/transport"
	"totoro/internal/wire/codec"
)

// echoHandler counts receives and can arm a timer that records firings.
type echoHandler struct {
	env      transport.Env
	received int
	fired    *[]string
	label    string
}

func (h *echoHandler) Receive(from transport.Addr, msg any) { h.received++ }

func (h *echoHandler) armTimer(d time.Duration) {
	h.env.After(d, func() {
		*h.fired = append(*h.fired, h.label)
	})
}

func TestRestartRebuildsStack(t *testing.T) {
	net := New(Config{Seed: 1})
	builds := 0
	var fired []string
	var cur *echoHandler
	net.AddNode("a", func(env transport.Env) transport.Handler {
		builds++
		cur = &echoHandler{env: env, fired: &fired, label: string(rune('0' + builds))}
		return cur
	})
	first := cur

	// Arm a timer in generation 0, then crash and restart before it fires.
	first.armTimer(50 * time.Millisecond)
	net.Fail("a")
	h := net.Restart("a")
	if builds != 2 {
		t.Fatalf("builds = %d, want 2 (restart must rebuild the stack)", builds)
	}
	if h != transport.Handler(cur) || cur == first {
		t.Fatalf("restart did not install a fresh handler")
	}
	// The new incarnation arms its own timer; only that one may fire.
	cur.armTimer(60 * time.Millisecond)
	net.Run(time.Second)
	if len(fired) != 1 || fired[0] != "2" {
		t.Fatalf("fired = %v, want only the post-restart timer", fired)
	}
	if !net.Alive("a") {
		t.Fatalf("restarted node not alive")
	}
}

func TestRestartedNodeReceives(t *testing.T) {
	net := New(Config{Seed: 1})
	var a *echoHandler
	var sink []string
	net.AddNode("a", func(env transport.Env) transport.Handler {
		a = &echoHandler{env: env, fired: &sink}
		return a
	})
	var benv transport.Env
	benv = net.AddNode("b", func(env transport.Env) transport.Handler {
		return &echoHandler{env: env, fired: &sink}
	})

	net.Fail("a")
	benv.Send("a", "lost") // dead destination: dropped
	net.Run(time.Second)
	net.Restart("a")
	benv.Send("a", "arrives")
	net.Run(2 * time.Second)
	if a.received != 1 {
		t.Fatalf("post-restart handler received %d messages, want 1", a.received)
	}
}

// TestRestartRNGDeterministic pins that a restarted node's random stream
// depends only on (network seed, address, generation) — two identical
// networks restart into identical streams, and a restart never replays the
// pre-crash stream.
func TestRestartRNGDeterministic(t *testing.T) {
	draw := func() (gen0, gen1 int64) {
		net := New(Config{Seed: 42})
		var env transport.Env
		env = net.AddNode("n", func(e transport.Env) transport.Handler {
			return &echoHandler{env: e}
		})
		gen0 = env.Rand().Int63()
		net.Restart("n")
		gen1 = env.Rand().Int63()
		return
	}
	a0, a1 := draw()
	b0, b1 := draw()
	if a0 != b0 || a1 != b1 {
		t.Fatalf("restart rng not reproducible: (%d,%d) vs (%d,%d)", a0, a1, b0, b1)
	}
	if a0 == a1 {
		t.Fatalf("restarted node replayed the pre-crash stream")
	}
}

type parityMsg struct {
	N    int
	Data []float64
}

func (parityMsg) WireSize() int { return 9999 } // estimate, deliberately wrong

func init() {
	codec.RegisterCodec(200, parityMsg{},
		func(e *codec.Enc, v any) {
			m := v.(parityMsg)
			e.Int(m.N)
			e.Float64s(m.Data)
		},
		func(d *codec.Dec) any { return parityMsg{N: d.Int(), Data: d.Float64s()} })
}

// TestExactSizesMatchWire pins the satellite contract: with a codec Sizer, a
// registered message is charged exactly the bytes tcpnet would write for
// it (uvarint length prefix + codec-v2 frame body), not its WireSize
// estimate — so simulated traffic counters equal live-deployment ones.
func TestExactSizesMatchWire(t *testing.T) {
	msg := parityMsg{N: 7, Data: []float64{1.5, -2.25, 3}}
	want, err := codec.FrameSize("a", msg)
	if err != nil {
		t.Fatal(err)
	}
	// Independently recompute from a raw encode, the way tcpnet frames it.
	enc := codec.NewEnc()
	enc.Addr("a")
	enc.Value(msg)
	body := len(enc.Bytes())
	enc.Free()
	prefix := 1
	for x := body; x >= 0x80; x >>= 7 {
		prefix++
	}
	if want != prefix+body {
		t.Fatalf("FrameSize = %d, want prefix %d + body %d", want, prefix, body)
	}

	net := New(Config{Seed: 1, Sizer: codec.FrameSize})
	env := net.AddNode("a", func(e transport.Env) transport.Handler { return &echoHandler{env: e} })
	net.AddNode("b", func(e transport.Env) transport.Handler { return &echoHandler{env: e} })
	env.Send("b", msg)
	net.Run(time.Second)
	if got := net.MetricsOf("a").Counter(CtrBytesOut).Value(); got != int64(want) {
		t.Fatalf("ExactSizes charged %d bytes, want %d", got, want)
	}
	if got := net.MetricsOf("b").Counter(CtrBytesIn).Value(); got != int64(want) {
		t.Fatalf("receiver charged %d bytes, want %d", got, want)
	}

	// Estimate mode keeps the WireSize contract.
	net2 := New(Config{Seed: 1})
	env2 := net2.AddNode("a", func(e transport.Env) transport.Handler { return &echoHandler{env: e} })
	net2.AddNode("b", func(e transport.Env) transport.Handler { return &echoHandler{env: e} })
	env2.Send("b", msg)
	net2.Run(time.Second)
	if got := net2.MetricsOf("a").Counter(CtrBytesOut).Value(); got != 9999 {
		t.Fatalf("estimate mode charged %d bytes, want WireSize 9999", got)
	}
}

// TestChurnRestartMode drives a churn phase in restart mode and checks
// downed nodes come back as rebuilt stacks, not revived zombies.
func TestChurnRestartMode(t *testing.T) {
	net := New(Config{Seed: 7})
	builds := map[transport.Addr]int{}
	for _, a := range []transport.Addr{"a", "b", "c", "d"} {
		addr := a
		net.AddNode(addr, func(e transport.Env) transport.Handler {
			builds[addr]++
			return &echoHandler{env: e}
		})
	}
	var restarted []transport.Addr
	nm := startChurn(t, net, NemesisConfig{
		Seed: 11,
		OnRestart: func(addr transport.Addr, now time.Duration) {
			restarted = append(restarted, addr)
		},
	}, churnPhase(net, 2*time.Second, 100*time.Millisecond, 50*time.Millisecond, true))
	net.Run(2 * time.Second)
	if nm.Restarts == 0 || nm.Revives != 0 {
		t.Fatalf("restarts=%d revives=%d, want restarts>0 and no revives", nm.Restarts, nm.Revives)
	}
	if len(restarted) != nm.Restarts {
		t.Fatalf("OnRestart fired %d times, counter says %d", len(restarted), nm.Restarts)
	}
	rebuilt := 0
	for _, n := range builds {
		rebuilt += n - 1
	}
	if rebuilt != nm.Restarts {
		t.Fatalf("stacks rebuilt %d times, restarts %d", rebuilt, nm.Restarts)
	}
}
