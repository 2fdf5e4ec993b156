package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	totoro "totoro"
	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
	"totoro/internal/workload"
)

// The traced run splits a round's host time across the layers without
// touching the program: the benchmark builds the same fleet NewCluster
// builds, from the same public constructors in the same rng draw order, but
// hands every engine shims it owns — a Handler around the engine, an Env
// around the node's env, a timed Sizer, a timed Eval, a timed Store. That
// the shimmed fleet is the same system is not assumed: its sim_digest must
// equal the untraced Cluster run's.

// Span kinds. A span's layer is where the time is spent, not who asked.
const (
	idRingRecv      uint8 = iota // Engine.Receive of a ring.Message
	idPubsubRecv                 // … of a pubsub message (includes engine upcalls and fl merges)
	idEngineRecv                 // … of the engine's own replica/ping messages
	idTimerRun                   // a callback armed with Env.After (includes the wait on fl.Go futures)
	idSend                       // Env.Send: fault rules, NIC model, queue push
	idSize                       // Sizer → codec.FrameSize
	idEval                       // Options.Eval → MLP.Accuracy on the test set
	idStoreAppend                // Store.Append
	idStoreSnapshot              // Store.Snapshot
	numSpanKinds
)

// spanNames are the metric stems: "<name>_s" is a kind's summed self time,
// "<name>_n" its count.
var spanNames = [numSpanKinds]string{
	idRingRecv: "ring.recv", idPubsubRecv: "pubsub.recv", idEngineRecv: "engine.recv",
	idTimerRun: "timer.run", idSend: "simnet.send", idSize: "codec.size", idEval: "ml.eval",
	idStoreAppend: "store.append", idStoreSnapshot: "store.snapshot",
}

// span is one timed call: times are nanoseconds since the recorder's origin,
// parent indexes the enclosing span (-1 at top level, i.e. called straight
// from the event loop). Round is the FL round the work belongs to where the
// shim can see it (an Upstream's Round; children inherit their parent's),
// 0 otherwise — the handle a later per-round waterfall needs.
type span struct {
	name       uint8
	parent     int32
	round      int32
	start, end int64
}

// spanSum is one span name reduced: how many, and their summed self time
// (duration minus the part child spans cover).
type spanSum struct {
	N     int64
	SelfS float64
}

// recorder keeps spans in memory; the event loop is single-threaded, so a
// stack of open spans gives each new span its parent.
type recorder struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int32
	afterN int64
}

func (r *recorder) begin(name uint8, round int32) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
		if round == 0 {
			round = r.spans[parent].round
		}
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, round: round, start: int64(time.Since(r.origin))})
	r.open = append(r.open, idx)
	return idx
}

func (r *recorder) end(idx int32) {
	if idx < 0 {
		return
	}
	r.spans[idx].end = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
}

// reduce folds the spans into per-name counts and self times.
func (r *recorder) reduce() map[string]spanSum {
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	var sums [numSpanKinds]spanSum
	for i, s := range r.spans {
		sums[s.name].N++
		sums[s.name].SelfS += float64(s.end-s.start-covered[i]) / 1e9
	}
	out := make(map[string]spanSum, len(spanNames))
	for i, name := range spanNames {
		out[name] = sums[i]
	}
	return out
}

// tracedHandler wraps an engine: one span per Receive, bucketed by message
// type the way Engine.Receive dispatches.
type tracedHandler struct {
	eng *totoro.Engine
	rec *recorder
}

func (h *tracedHandler) Receive(from transport.Addr, msg any) {
	name, round := idEngineRecv, int32(0)
	switch m := msg.(type) {
	case ring.Message:
		name = idRingRecv
	case pubsub.Upstream:
		name, round = idPubsubRecv, int32(m.Round)
	case pubsub.Message:
		name = idPubsubRecv
	}
	i := h.rec.begin(name, round)
	h.eng.Receive(from, msg)
	h.rec.end(i)
}

// tracedEnv wraps a node's env: Send and the callbacks After arms are spans,
// After itself a count.
type tracedEnv struct {
	transport.Env
	rec *recorder
}

func (e *tracedEnv) Send(to transport.Addr, msg any) {
	i := e.rec.begin(idSend, 0)
	e.Env.Send(to, msg)
	e.rec.end(i)
}

func (e *tracedEnv) After(d time.Duration, fn func()) (cancel func()) {
	if e.rec.on {
		e.rec.afterN++
	}
	return e.Env.After(d, func() {
		i := e.rec.begin(idTimerRun, 0)
		fn()
		e.rec.end(i)
	})
}

// tracedStore wraps a node's durable store.
type tracedStore struct {
	store.Store
	rec *recorder
}

func (s *tracedStore) Append(rec any) error {
	i := s.rec.begin(idStoreAppend, 0)
	err := s.Store.Append(rec)
	s.rec.end(i)
	return err
}

func (s *tracedStore) Snapshot(state any) error {
	i := s.rec.begin(idStoreSnapshot, 0)
	err := s.Store.Snapshot(state)
	s.rec.end(i)
	return err
}

// runTraced is one traced repetition of a fault-free workload. It mirrors
// NewCluster, Deploy and Train step for step; any drift from them shows as
// a sim_digest mismatch against runCluster.
func runTraced(w spec, seed int64) rep {
	if w.Chaos {
		panic("bench: chaos needs Cluster internals (StartChaos, Restarted); it has no traced fleet")
	}
	var r rep
	rec := &recorder{origin: time.Now()}
	cfg := w.clusterConfig()

	// --- NewCluster ---
	t0 := time.Now()
	totoro.RegisterWire()
	net := simnet.New(simnet.Config{
		Seed:             w.Fleet,
		Latency:          simnet.ConstLatency(5 * time.Millisecond),
		DefaultBandwidth: cfg.Bandwidth,
		Sizer: func(from transport.Addr, msg any) (int, error) {
			i := rec.begin(idSize, 0)
			n, err := codec.FrameSize(from, msg)
			rec.end(i)
			return n, err
		},
	})
	rng := rand.New(rand.NewSource(w.Fleet))
	evals := make(map[totoro.AppID]func(params []float64) float64)
	eval := func(app totoro.AppID, params []float64) float64 {
		i := rec.begin(idEval, 0)
		defer rec.end(i)
		if f, ok := evals[app]; ok {
			return f(params)
		}
		return 0
	}
	engines := make([]*totoro.Engine, 0, w.Nodes)
	ringNodes := make([]*ring.Node, 0, w.Nodes)
	for n := 0; n < w.Nodes; n++ {
		addr := transport.Addr(fmt.Sprintf("n%d", n))
		id := ids.Random(rng)
		var st store.Store
		if cfg.Durable {
			st = &tracedStore{Store: store.NewMem(), rec: rec}
		}
		queue := &workload.ComputeQueue{}
		var eng *totoro.Engine
		net.AddNode(addr, func(env transport.Env) transport.Handler {
			eng = totoro.NewEngine(&tracedEnv{Env: env, rec: rec}, ring.Contact{ID: id, Addr: addr}, totoro.Options{
				Ring:   cfg.Ring,
				PubSub: cfg.PubSub,
				Speed:  1,
				Queue:  queue,
				Eval:   eval,
				Store:  st,
			})
			return &tracedHandler{eng: eng, rec: rec}
		})
		engines = append(engines, eng)
		ringNodes = append(ringNodes, eng.Ring())
	}
	t1 := time.Now()
	ring.BuildStatic(ringNodes, rng)
	t2 := time.Now()
	runtime.GC() // so the heap reading is the fleet, not construction garbage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.HeapAfterConstruct = ms.HeapAlloc
	r.AddNodeS = t1.Sub(t0).Seconds()
	r.BuildStaticS = t2.Sub(t1).Seconds()
	r.ConstructS = t2.Sub(t0).Seconds()

	// --- MakeApps ---
	t3 := time.Now()
	apps := w.makeApps(seed)
	t4 := time.Now()
	r.MakeAppsS = t4.Sub(t3).Seconds()

	// --- Deploy ---
	appIDs := make([]totoro.AppID, len(apps))
	for i, workers := range w.placement(apps) {
		app := apps[i]
		id := totoro.NewAppID(app.Name, "cluster")
		spec := totoro.SpecFromWorkload(id, app)
		model, test := app.Proto.Clone(), app.Test
		evals[id] = func(params []float64) float64 {
			model.SetParams(params)
			return model.Accuracy(test)
		}
		engines[workers[0]].CreateTree(spec)
		net.RunUntilIdle()
		for j, n := range workers {
			if err := engines[n].Subscribe(id, app.Shards[j%len(app.Shards)], false); err != nil {
				r.Failed++
				r.Problems = append(r.Problems, "subscribe: "+err.Error())
			}
		}
		net.RunUntilIdle()
		appIDs[i] = id
	}
	r.DeployS = time.Since(t4).Seconds()
	r.SetupS = r.ConstructS + r.MakeAppsS + r.DeployS

	// --- Train ---
	win := openWindow(net)
	rec.on = true
	for _, id := range appIDs {
		engines[rng.Intn(len(engines))].StartTraining(id)
	}
	r.Events = int64(net.RunUntilIdle())
	rec.on = false
	total := win.close(net, &r)
	r.AfterN = rec.afterN
	r.Spans = rec.reduce()

	outcomes := make([]appOutcome, len(appIDs))
	for i, id := range appIDs {
		for _, e := range engines {
			if e.IsMaster(id) {
				if p, ok := e.Progress(id); ok {
					outcomes[i].points = p.Points
				}
				outcomes[i].params, _ = e.GlobalParams(id)
				break
			}
		}
	}
	w.judge(&r, total, net.Now(), win.vstart, outcomes)
	return r
}

// layerMetrics assembles the per-layer report of one workload from its three
// sources: the traced repetition (nil for chaos, whose phase timers come
// from the untraced one), the untraced repetition's boundary counts, and the
// probes.
func layerMetrics(w spec, untraced rep, traced *rep, probes map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	phases := untraced
	if traced != nil {
		phases = *traced
		inHandlers := 0.0
		for name, s := range traced.Spans {
			out[name+"_s"] = s.SelfS
			out[name+"_n"] = float64(s.N)
			inHandlers += s.SelfS
		}
		out["simnet.after_n"] = float64(traced.AfterN)
		out["simnet.addnode_s"] = traced.AddNodeS
		out["ring.buildstatic_s"] = traced.BuildStaticS
		out["cluster.bytes_per_node"] = float64(traced.HeapAfterConstruct) / float64(w.Nodes)
		out["simnet.events"] = float64(traced.Events)
		// Self times of nested spans add up to the top-level durations, so
		// what is left of the train wall is the event loop itself: queue
		// pop, delivery closures, the ingress NIC model.
		out["simnet.loop_s"] = traced.TrainWallS - inHandlers
		if traced.Events > 0 {
			out["simnet.loop_ns_per_event"] = out["simnet.loop_s"] * 1e9 / float64(traced.Events)
		}
		out["trace.overhead_pct"] = (traced.TrainWallS/untraced.TrainWallS - 1) * 100
	}
	out["cluster.construct_s"] = phases.ConstructS
	out["workload.makeapps_s"] = phases.MakeAppsS
	out["engine.deploy_s"] = phases.DeployS
	out["cluster.us_per_node"] = phases.ConstructS * 1e6 / float64(w.Nodes)
	for name, v := range untraced.Counts {
		out[name] = float64(v)
	}
	if n := w.Rounds * w.Apps * w.Workers; n > 0 {
		out["fl.participant_ratio"] = float64(untraced.Counts["fl.participants"]) / float64(n)
	}
	for name, v := range probes {
		out[name] = v
	}
	return out
}
