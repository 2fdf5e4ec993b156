package totoro_test

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	totoro "totoro"
	"totoro/internal/obs"
	"totoro/internal/ring"
	"totoro/internal/transport"
	"totoro/internal/transport/tcpnet"
)

// TestEnginesOverRealTCP runs four full Totoro engines as live TCP
// endpoints on localhost: dynamic overlay join, tree construction,
// broadcast, and in-network aggregation — the same code paths the
// simulator drives, over real sockets.
func TestEnginesOverRealTCP(t *testing.T) {
	totoro.RegisterWire()

	type liveNode struct {
		node   *tcpnet.Node
		engine *totoro.Engine
	}
	var (
		mu        sync.Mutex
		delivered = map[transport.Addr]int{}
		aggregate int
		aggCount  int
	)
	mk := func(name string) *liveNode {
		ln := &liveNode{}
		n, err := tcpnet.Listen("127.0.0.1:0", func(e transport.Env) transport.Handler {
			ln.engine = totoro.NewEngine(e, ring.Contact{
				ID:   totoro.NewAppID("node", name), // any unique 128-bit id
				Addr: e.Self(),
			}, totoro.Options{Ring: ring.Config{B: 4}})
			ln.engine.SetCallbacks(totoro.Callbacks{
				OnBroadcast: func(app totoro.AppID, obj any, depth int, sub bool) {
					if sub {
						mu.Lock()
						delivered[e.Self()]++
						mu.Unlock()
					}
				},
				Combine: func(app totoro.AppID, a, b any) any { return a.(int) + b.(int) },
				OnAggregate: func(app totoro.AppID, round int, obj any, count int) {
					mu.Lock()
					aggregate = obj.(int)
					aggCount = count
					mu.Unlock()
				},
			})
			return ln.engine
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		ln.node = n
		return ln
	}

	nodes := []*liveNode{mk("a"), mk("b"), mk("c"), mk("d")}
	// Join everyone through the first node.
	bootstrap := nodes[0].node.Addr()
	for _, ln := range nodes[1:] {
		ln := ln
		ln.node.Do(func() { ln.engine.Rejoin(bootstrap) })
		time.Sleep(150 * time.Millisecond) // sequential joins settle
	}
	waitFor(t, func() bool {
		ok := true
		for _, ln := range nodes[1:] {
			ln.node.Do(func() { ok = ok && ln.engine.Ring().Joined() })
		}
		return ok
	})

	topic := totoro.NewAppID("tcp-demo", "e2e")
	for _, ln := range nodes {
		ln := ln
		ln.node.Do(func() { ln.engine.SubscribeTopic(topic) })
	}
	time.Sleep(300 * time.Millisecond)

	nodes[1].node.Do(func() { nodes[1].engine.Broadcast(topic, "hello-edge") })
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == len(nodes)
	})

	for _, ln := range nodes {
		ln := ln
		ln.node.Do(func() { ln.engine.Aggregate(topic, 1, 1) })
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return aggregate == len(nodes) && aggCount == len(nodes)
	})

	// The node's telemetry is live over HTTP: the same registry the protocol
	// layers write to is served at /metrics, exactly as `totoro-node -metrics`
	// exposes it.
	bound, stop, err := obs.StartServer("127.0.0.1:0", obs.RegistryHandler(nodes[0].node.Metrics()))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["pubsub.deliveries"] < 1 {
		t.Fatalf("live /metrics shows no pubsub deliveries: %v", snap.Counters)
	}
	if snap.Counters["net.msgs_in"] < 1 || snap.Counters["net.bytes_in"] < 1 {
		t.Fatalf("live /metrics shows no transport traffic: %v", snap.Counters)
	}
}

// TestModelUpdateParityOverTCP is the simnet ↔ tcpnet parity check for
// wire format v2: the []float64 model updates that move as in-memory
// values under the simulator must arrive bit-identical over real sockets
// — including the float bit patterns (−0, ±Inf, denormals) that a lossy
// reencoding would disturb — and in-network aggregation over TCP must
// produce the exact sum, with zero decode errors end to end.
func TestModelUpdateParityOverTCP(t *testing.T) {
	totoro.RegisterWire()

	update := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64, 0.1, 3}

	type liveNode struct {
		node   *tcpnet.Node
		engine *totoro.Engine
	}
	var (
		mu       sync.Mutex
		received = map[transport.Addr][]float64{}
		aggGot   []float64
	)
	mk := func(name string) *liveNode {
		ln := &liveNode{}
		n, err := tcpnet.Listen("127.0.0.1:0", func(e transport.Env) transport.Handler {
			ln.engine = totoro.NewEngine(e, ring.Contact{
				ID:   totoro.NewAppID("parity-node", name),
				Addr: e.Self(),
			}, totoro.Options{Ring: ring.Config{B: 4}})
			ln.engine.SetCallbacks(totoro.Callbacks{
				OnBroadcast: func(app totoro.AppID, obj any, depth int, sub bool) {
					if sub {
						mu.Lock()
						received[e.Self()] = obj.([]float64)
						mu.Unlock()
					}
				},
				Combine: func(app totoro.AppID, a, b any) any {
					av, bv := a.([]float64), b.([]float64)
					out := make([]float64, len(av))
					for i := range out {
						out[i] = av[i] + bv[i]
					}
					return out
				},
				OnAggregate: func(app totoro.AppID, round int, obj any, count int) {
					mu.Lock()
					aggGot = obj.([]float64)
					mu.Unlock()
				},
			})
			return ln.engine
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		ln.node = n
		return ln
	}

	nodes := []*liveNode{mk("a"), mk("b"), mk("c")}
	bootstrap := nodes[0].node.Addr()
	for _, ln := range nodes[1:] {
		ln := ln
		ln.node.Do(func() { ln.engine.Rejoin(bootstrap) })
		time.Sleep(150 * time.Millisecond)
	}
	topic := totoro.NewAppID("parity", "e2e")
	for _, ln := range nodes {
		ln := ln
		ln.node.Do(func() { ln.engine.SubscribeTopic(topic) })
	}
	time.Sleep(300 * time.Millisecond)

	nodes[0].node.Do(func() { nodes[0].engine.Broadcast(topic, update) })
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(received) == len(nodes)
	})
	mu.Lock()
	for addr, got := range received {
		if len(got) != len(update) {
			t.Fatalf("%s: got %d floats, want %d", addr, len(got), len(update))
		}
		for i := range update {
			if math.Float64bits(got[i]) != math.Float64bits(update[i]) {
				t.Fatalf("%s: index %d: bits %x != %x (value %v vs %v)",
					addr, i, math.Float64bits(got[i]), math.Float64bits(update[i]), got[i], update[i])
			}
		}
	}
	mu.Unlock()

	// Integer-valued contributions sum exactly in any aggregation order, so
	// the in-network tree sum over TCP must be bit-identical to the local
	// one.
	contrib := []float64{1, 2, 4}
	for _, ln := range nodes {
		ln := ln
		ln.node.Do(func() { ln.engine.Aggregate(topic, 1, append([]float64(nil), contrib...)) })
	}
	want := []float64{3, 6, 12}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(aggGot) != len(want) {
			return false
		}
		for i := range want {
			if aggGot[i] != want[i] {
				return false
			}
		}
		return true
	})

	for _, ln := range nodes {
		if n := ln.node.Metrics().Counter(transport.CtrDecodeErrors).Value(); n != 0 {
			t.Fatalf("%s: %d decode errors during parity run", ln.node.Addr(), n)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}
