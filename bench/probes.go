package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	totoro "totoro"
	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/ml"
	"totoro/internal/obs"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/transport/tcpnet"
	"totoro/internal/wire/codec"
)

// Layer probes: timed loops over each layer's public functions, on inputs
// shaped like the workloads (the 32.6k-parameter model of bigmodel-1k, a
// 10k-node overlay, one 5 000-member tree). They replace the numbers that
// lived only in BENCH_wire.json, BENCH_wal.json and EXPERIMENTS.md prose —
// frame encode/decode, WAL append/replay, kernel ns/sample, merge ns — so
// there is one place to look; the old files stay as history.
//
// A probe's value is the median over batches of the batch's mean, allocs/op
// are exact. Nothing here feeds an end-to-end metric: a probe says how fast
// a layer is alone, the traced run says how much of a round it is.

// probeCfg scales the probes: full size for the report, a fraction for the
// smoke test.
type probeCfg struct {
	batches int // timed batches per probe
	div     int // divides iteration counts and fleet sizes
}

var fullProbes = probeCfg{batches: 10, div: 1}

// probeWorkload is the workload whose per-layer table carries the probe
// rows. The probes do not depend on the workload, so running them under
// each would report four noisy copies of one number; on the other workloads
// the probe rows read 0. bigmodel-1k is the one whose shapes they use.
const probeWorkload = "bigmodel-1k"

func (p probeCfg) n(full int) int { return max(1, full/p.div) }

// medianOf runs batch (after one untimed warm-up) p.batches times and
// returns the median of what it reports.
func (p probeCfg) medianOf(batch func() float64) float64 {
	batch()
	vals := make([]float64, p.batches)
	for i := range vals {
		vals[i] = batch()
	}
	return median(vals)
}

// nsPerOp is medianOf for the common shape: n calls of op per batch.
func (p probeCfg) nsPerOp(full int, op func()) float64 {
	n := p.n(full)
	return p.medianOf(func() float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	})
}

// allocsPerOp counts heap allocations of n calls of op, exactly.
func allocsPerOp(n int, op func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink float64

// bigModel is the architecture of bigmodel-1k: 32 574 parameters, a 261 KB
// dense update.
var bigModel = []int{64, 256, 62}

// Records the store probes journal, mirroring the engine's two dominant
// shapes: the tiny per-round marker and a model-sized state image. Tags sit
// in the application range clear of the engine's block (64–76) and the
// experiment harness's (120, 121).
type probeRound struct {
	App   ids.ID
	Round int
}

type probeImage struct{ Params []float64 }

var registerProbeRecords = sync.OnceFunc(func() {
	codec.RegisterCodec(124, probeRound{},
		func(e *codec.Enc, v any) {
			r := v.(probeRound)
			e.ID(r.App)
			e.Int(r.Round)
		},
		func(d *codec.Dec) any { return probeRound{App: d.ID(), Round: d.Int()} })
	codec.RegisterCodec(125, probeImage{},
		func(e *codec.Enc, v any) { e.Float64s(v.(probeImage).Params) },
		func(d *codec.Dec) any { return probeImage{Params: d.Float64s()} })
	store.RegisterRecords(probeRound{}, probeImage{})
})

// runProbes measures every srcProbe row of perLayer. An error means a probe
// saw a wrong result (a multicast that missed members, a replay that lost
// records), not a slow one.
func runProbes(p probeCfg) (map[string]float64, error) {
	totoro.RegisterWire()
	registerProbeRecords()
	out := make(map[string]float64)
	for _, probe := range []func(probeCfg, map[string]float64) error{
		probeML, probeCodec, probeRing, probePubsub, probeSimnet, probeStore, probeObs, probeTCP,
	} {
		if err := probe(p, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probeML(p probeCfg, out map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	proto := ml.NewMLP(bigModel, rng)
	global := proto.Params()
	shard := ml.FEMNISTLike(60, rng) // one bigmodel-1k worker's shard
	test := ml.FEMNISTLike(450, rng) // its test set
	cfg := fl.ClientConfig{LocalEpochs: 1, BatchSize: 20, LR: 0.1, Momentum: 0.5}
	ws := ml.NewWorkspace()
	out["ml.train_ns_per_sample"] = p.nsPerOp(20, func() {
		sink += fl.LocalTrainWS(proto, global, shard, cfg, rng, ws).Delta[0]
	}) / float64(shard.Len())
	out["ml.eval_ns_per_sample"] = p.nsPerOp(5, func() {
		sink += proto.Accuracy(test)
	}) / float64(test.Len())

	a := fl.NewAccum(fl.Update{Delta: append([]float64(nil), global...), Samples: 60})
	b := fl.NewAccum(fl.Update{Delta: append([]float64(nil), global...), Samples: 60})
	out["fl.accum_add_ns"] = p.nsPerOp(500, func() { a.Add(b) })
	return nil
}

func probeCodec(p probeCfg, out map[string]float64) error {
	const from = transport.Addr("10.0.0.9:9000")
	params := ml.NewMLP(bigModel, rand.New(rand.NewSource(2))).Params()
	// An Upstream carrying a dense update is the size of the engine's
	// roundStart and updateAgg frames; a KeepAlive is the control frame the
	// resilient stack sends most.
	update := pubsub.Upstream{
		Topic: ids.ID{Hi: 9, Lo: 10}, Round: 42,
		From:  ring.Contact{ID: ids.ID{Hi: 11, Lo: 12}, Addr: "10.0.0.3:9000"},
		Count: 17, Object: params,
	}
	control := pubsub.KeepAlive{
		Topic:  ids.ID{Hi: 5, Lo: 6},
		Parent: ring.Contact{ID: ids.ID{Hi: 7, Lo: 8}, Addr: "10.0.0.2:9000"},
		Epoch:  1, LastSeq: 99,
	}
	var err error
	encode := func(msg any) func() {
		return func() {
			e := codec.NewEnc()
			if ferr := codec.EncodeFrame(e, from, msg); ferr != nil {
				err = ferr
			}
			sink += float64(e.Len())
			e.Free()
		}
	}
	frame := func(msg any) []byte {
		e := codec.NewEnc()
		defer e.Free()
		if ferr := codec.EncodeFrame(e, from, msg); ferr != nil {
			err = ferr
		}
		return append([]byte(nil), e.Bytes()...)
	}
	decode := func(buf []byte) func() {
		return func() {
			if _, _, derr := codec.DecodeFrame(buf); derr != nil {
				err = derr
			}
		}
	}
	updateFrame, controlFrame := frame(update), frame(control)
	out["codec.encode_update_ns"] = p.nsPerOp(200, encode(update))
	out["codec.decode_update_ns"] = p.nsPerOp(100, decode(updateFrame))
	out["codec.framesize_update_ns"] = p.nsPerOp(200, func() {
		n, ferr := codec.FrameSize(from, update)
		if ferr != nil {
			err = ferr
		}
		sink += float64(n)
	})
	out["codec.encode_control_ns"] = p.nsPerOp(50000, encode(control))
	out["codec.decode_control_ns"] = p.nsPerOp(50000, decode(controlFrame))
	enc, dec := encode(update), decode(updateFrame)
	out["codec.update_allocs"] = allocsPerOp(p.n(100), func() { enc(); dec() })
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	return nil
}

// hopCounter is the ring.App of the routing probe: it sums the hops of
// every delivered route.
type hopCounter struct{ hops, delivered int64 }

func (h *hopCounter) Deliver(d ring.Delivery)                   { h.hops += int64(d.Hops); h.delivered++ }
func (h *hopCounter) Forward(*ring.Delivery, ring.Contact) bool { return true }

// nullEnv is the least a ring.Node needs to be constructed and statically
// wired: BuildStatic sends nothing and arms no timers.
type nullEnv struct {
	reg *obs.Registry
	rng *rand.Rand
}

func (nullEnv) Self() transport.Addr                        { return transport.None }
func (nullEnv) Now() time.Duration                          { return 0 }
func (nullEnv) Send(transport.Addr, any)                    {}
func (nullEnv) After(time.Duration, func()) (cancel func()) { return func() {} }
func (e nullEnv) Rand() *rand.Rand                          { return e.rng }
func (e nullEnv) Metrics() *obs.Registry                    { return e.reg }

func probeRing(p probeCfg, out map[string]float64) error {
	// Routing: random keys from random nodes over a 10k-node static overlay
	// with zero link latency. A hop is one ring.Receive plus one simnet
	// dispatch, which is what a hop costs a simulated fleet.
	rng := rand.New(rand.NewSource(3))
	n := max(64, p.n(10000))
	net := simnet.New(simnet.Config{Seed: 3, Latency: simnet.ConstLatency(0)})
	nodes := make([]*ring.Node, n)
	app := &hopCounter{}
	for i := range nodes {
		addr := transport.Addr(fmt.Sprintf("n%d", i))
		id := ids.Random(rng)
		net.AddNode(addr, func(env transport.Env) transport.Handler {
			nodes[i] = ring.New(env, ring.Contact{ID: id, Addr: addr}, ring.Config{B: 4})
			nodes[i].SetApp(app)
			return nodes[i]
		})
	}
	ring.BuildStatic(nodes, rng)
	routes := p.n(5000)
	var routed int64
	out["ring.route_ns_per_hop"] = p.medianOf(func() float64 {
		before := app.hops
		start := time.Now()
		for i := 0; i < routes; i++ {
			nodes[rng.Intn(n)].Route(ids.Random(rng), nil)
		}
		net.RunUntilIdle()
		routed += int64(routes)
		return float64(time.Since(start).Nanoseconds()) / float64(max(1, app.hops-before))
	})
	if app.delivered != routed {
		return fmt.Errorf("ring probe: %d of %d routes delivered", app.delivered, routed)
	}

	// Static wiring: per-node cost at 10k, and how it grows to 50k (1.0 is
	// linear). Re-wiring an already wired population does the same sorting,
	// bucketing and table writes as the first pass; the 50k population costs
	// a second a pass, so it gets three batches instead of ten.
	perNode := func(size, batches int) float64 {
		env := nullEnv{reg: obs.New(0), rng: rng}
		pop := make([]*ring.Node, size)
		for i := range pop {
			pop[i] = ring.New(env, ring.Contact{ID: ids.Random(rng), Addr: transport.Addr(fmt.Sprintf("n%d", i))}, ring.Config{B: 4})
		}
		return probeCfg{batches: batches, div: p.div}.medianOf(func() float64 {
			start := time.Now()
			ring.BuildStatic(pop, rng)
			return float64(time.Since(start).Nanoseconds()) / float64(size)
		})
	}
	at10k := perNode(max(64, p.n(10000)), p.batches)
	at50k := perNode(max(64, p.n(50000)), min(p.batches, 3))
	out["ring.buildstatic_ns_per_node"] = at10k
	out["ring.buildstatic_scale"] = at50k / at10k
	return nil
}

// psStack couples a ring node and a pub/sub node as one handler, the way
// Engine.Receive dispatches between them.
type psStack struct {
	ring *ring.Node
	ps   *pubsub.Node
}

func (s *psStack) Receive(from transport.Addr, msg any) {
	if _, ok := msg.(ring.Message); ok {
		s.ring.Receive(from, msg)
		return
	}
	s.ps.Receive(from, msg)
}

func probePubsub(p probeCfg, out map[string]float64) error {
	// One tree with every node a subscriber: multicast one small object down
	// it, then aggregate one contribution per member up it.
	rng := rand.New(rand.NewSource(4))
	members := max(50, p.n(5000))
	net := simnet.New(simnet.Config{Seed: 4})
	topic := ids.Hash("bench", "probe-tree")
	stacks := make([]*psStack, members)
	ringNodes := make([]*ring.Node, members)
	var delivered, aggregated int
	for i := range stacks {
		addr := transport.Addr(fmt.Sprintf("n%d", i))
		id := ids.Random(rng)
		s := &psStack{}
		net.AddNode(addr, func(env transport.Env) transport.Handler {
			s.ring = ring.New(env, ring.Contact{ID: id, Addr: addr}, ring.Config{B: 4})
			s.ps = pubsub.New(env, s.ring, pubsub.Config{})
			s.ps.SetHandlers(pubsub.Handlers{
				OnDeliver: func(_ ids.ID, _ any, _ int, subscriber bool) {
					if subscriber {
						delivered++
					}
				},
				Combine:     func(_ ids.ID, a, b any) any { return a.(int) + b.(int) },
				OnAggregate: func(_ ids.ID, _ int, obj any, _ int) { aggregated, _ = obj.(int) },
			})
			return s
		})
		stacks[i], ringNodes[i] = s, s.ring
	}
	ring.BuildStatic(ringNodes, rng)
	stacks[0].ps.Create(topic)
	net.RunUntilIdle()
	for _, s := range stacks {
		s.ps.Subscribe(topic)
	}
	net.RunUntilIdle()

	var err error
	out["pubsub.multicast_ns_per_member"] = p.medianOf(func() float64 {
		delivered = 0
		start := time.Now()
		stacks[0].ps.Publish(topic, 1)
		net.RunUntilIdle()
		elapsed := time.Since(start)
		if delivered != members {
			err = fmt.Errorf("pubsub probe: multicast reached %d of %d members", delivered, members)
		}
		return float64(elapsed.Nanoseconds()) / float64(members)
	})
	round := 0
	out["pubsub.aggregate_ns_per_member"] = p.medianOf(func() float64 {
		round++
		aggregated = 0
		start := time.Now()
		for _, s := range stacks {
			s.ps.SubmitUpdate(topic, round, 1)
		}
		net.RunUntilIdle()
		elapsed := time.Since(start)
		if aggregated != members {
			err = fmt.Errorf("pubsub probe: aggregate folded %d of %d contributions", aggregated, members)
		}
		return float64(elapsed.Nanoseconds()) / float64(members)
	})
	return err
}

func probeSimnet(p probeCfg, out map[string]float64) error {
	// Two nodes, a no-op handler: what one message (send + dispatch) and one
	// timer (arm + fire) cost the event loop with nothing behind them.
	net := simnet.New(simnet.Config{Seed: 5})
	nop := func(transport.Env) transport.Handler {
		return transport.HandlerFunc(func(transport.Addr, any) {})
	}
	a := net.AddNode("a", nop)
	net.AddNode("b", nop)
	type ping struct{}
	events := p.n(50000)
	perEvent := func(batch func()) float64 {
		return p.medianOf(func() float64 {
			start := time.Now()
			batch()
			return float64(time.Since(start).Nanoseconds()) / float64(events)
		})
	}
	send := func() {
		for i := 0; i < events; i++ {
			a.Send("b", ping{})
		}
		net.RunUntilIdle()
	}
	out["simnet.dispatch_ns_per_event"] = perEvent(send)
	out["simnet.dispatch_allocs_per_event"] = allocsPerOp(1, send) / float64(events)
	out["simnet.timer_ns_per_event"] = perEvent(func() {
		for i := 0; i < events; i++ {
			a.After(time.Duration(i), func() {})
		}
		net.RunUntilIdle()
	})
	if got := net.Delivered(); got == 0 || net.Dropped() != 0 {
		return fmt.Errorf("simnet probe: delivered %d, dropped %d", got, net.Dropped())
	}
	return nil
}

func probeStore(p probeCfg, out map[string]float64) error {
	marker := probeRound{App: ids.ID{Hi: 1, Lo: 2}, Round: 42}
	image := probeImage{Params: ml.NewMLP(bigModel, rand.New(rand.NewSource(6))).Params()}
	var err error
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}

	appends := p.n(20000)
	out["store.mem_append_ns"] = p.medianOf(func() float64 {
		st := store.NewMem()
		start := time.Now()
		for i := 0; i < appends; i++ {
			note(st.Append(marker))
		}
		return float64(time.Since(start).Nanoseconds()) / float64(appends)
	})
	mem := store.NewMem()
	out["store.snapshot_mb_per_s"] = 8 * float64(len(image.Params)) * 1e3 /
		p.nsPerOp(50, func() { note(mem.Snapshot(image)) })

	// File store without fsync: fsync is the disk's number, not ours.
	dir, derr := os.MkdirTemp("", "bench-store-*")
	if derr != nil {
		return fmt.Errorf("store probe: %w", derr)
	}
	defer os.RemoveAll(dir)
	file, derr := store.Open(dir, store.FileConfig{})
	if derr != nil {
		return fmt.Errorf("store probe: %w", derr)
	}
	out["store.file_append_ns"] = p.nsPerOp(20000, func() { note(file.Append(marker)) })
	note(file.Close())

	// Cold recovery: reopen a directory holding a model snapshot plus a
	// journal tail and replay it, as totoro-node does before rejoining.
	tail := p.n(10000)
	rdir, derr := os.MkdirTemp("", "bench-replay-*")
	if derr != nil {
		return fmt.Errorf("store probe: %w", derr)
	}
	defer os.RemoveAll(rdir)
	seedStore, derr := store.Open(rdir, store.FileConfig{})
	if derr != nil {
		return fmt.Errorf("store probe: %w", derr)
	}
	note(seedStore.Snapshot(image))
	for i := 0; i < tail; i++ {
		note(seedStore.Append(probeRound{App: marker.App, Round: i}))
	}
	note(seedStore.Close())
	out["store.replay_ns_per_record"] = p.medianOf(func() float64 {
		start := time.Now()
		st, oerr := store.Open(rdir, store.FileConfig{})
		if oerr != nil {
			note(oerr)
			return 0
		}
		_, recs, lerr := st.Load()
		elapsed := time.Since(start)
		note(lerr)
		note(st.Close())
		if len(recs) != tail {
			note(fmt.Errorf("replayed %d of %d records", len(recs), tail))
		}
		return float64(elapsed.Nanoseconds()) / float64(tail)
	})
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	return nil
}

func probeObs(p probeCfg, out map[string]float64) error {
	reg := obs.New(0)
	ev := obs.Event{At: time.Second, Node: "n1", Kind: obs.KindRingHop, Key: "0123456789abcdef", To: "n2", Hop: 3}
	out["obs.trace_append_ns"] = p.nsPerOp(200000, func() { reg.Trace(ev) })
	ctr := reg.Counter("bench.probe")
	out["obs.counter_inc_ns"] = p.nsPerOp(1000000, func() { ctr.Inc() })
	return nil
}

func probeTCP(p probeCfg, out map[string]float64) error {
	// Loopback, one connection each way, one outstanding message: a
	// ping-pong between two in-process tcpnet nodes. It is the floor a live
	// deployment adds to the same frames, not a throughput ceiling.
	replied := make(chan struct{}, 1)
	var envA transport.Env
	a, err := tcpnet.Listen("127.0.0.1:0", func(env transport.Env) transport.Handler {
		envA = env
		return transport.HandlerFunc(func(transport.Addr, any) { replied <- struct{}{} })
	})
	if err != nil {
		return fmt.Errorf("tcpnet probe: %w", err)
	}
	defer a.Close()
	b, err := tcpnet.Listen("127.0.0.1:0", func(env transport.Env) transport.Handler {
		return transport.HandlerFunc(func(from transport.Addr, _ any) { env.Send(from, pubsub.LeaveMsg{}) })
	})
	if err != nil {
		return fmt.Errorf("tcpnet probe: %w", err)
	}
	defer b.Close()

	roundTrip := func(msg any) (time.Duration, error) {
		start := time.Now()
		a.Do(func() { envA.Send(b.Addr(), msg) })
		select {
		case <-replied:
			return time.Since(start), nil
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("tcpnet probe: no reply within 10s")
		}
	}
	control := pubsub.KeepAlive{Topic: ids.ID{Hi: 5, Lo: 6}, Epoch: 1, LastSeq: 99}
	for i := 0; i < 20; i++ { // dial both directions, warm the buffers
		if _, err := roundTrip(control); err != nil {
			return err
		}
	}
	rtts := make([]float64, max(20, p.n(500)))
	for i := range rtts {
		d, err := roundTrip(control)
		if err != nil {
			return err
		}
		rtts[i] = float64(d.Nanoseconds()) / 1e3
	}
	out["tcpnet.rtt_us_p50"] = percentile(rtts, 50)
	out["tcpnet.rtt_us_p90"] = percentile(rtts, 90)

	params := ml.NewMLP(bigModel, rand.New(rand.NewSource(7))).Params()
	update := pubsub.Upstream{Topic: ids.ID{Hi: 9, Lo: 10}, Round: 42, Count: 17, Object: params}
	size, err := codec.FrameSize(a.Addr(), update)
	if err != nil {
		return fmt.Errorf("tcpnet probe: %w", err)
	}
	perBatch := max(2, p.n(5))
	out["tcpnet.update_mb_per_s"] = p.medianOf(func() float64 {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			if _, rerr := roundTrip(update); rerr != nil {
				err = rerr
			}
		}
		return float64(size*perBatch) / 1e6 / time.Since(start).Seconds()
	})
	return err
}
