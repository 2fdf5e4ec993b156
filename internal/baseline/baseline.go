// Package baseline implements the centralized "single master / many
// workers" FL architecture that OpenFL and FedScale share (paper §2.1,
// §7.4): one logically central parameter server hosts the Coordinator,
// Selector and per-app Aggregators; all clients talk to it directly in a
// hub-and-spoke pattern.
//
// The engine runs on the same simulator, the same ML stack, the same FL
// algorithms, and the same cost model as the decentralized Totoro engine,
// so the time-to-accuracy comparison isolates the architecture: the
// coordinator serializes round setup across concurrently running
// applications (first-come first-served), and the server's NIC serializes
// every model download and update upload.
package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"totoro/internal/fl"
	"totoro/internal/ml"
	"totoro/internal/simnet"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

// Profile distinguishes the two published baselines. Both are centralized;
// they differ in deployment footprint (§7.1: OpenFL is a single-machine
// framework, FedScale a distributed engine with a beefier serving path).
type Profile struct {
	Name            string
	ServerBandwidth int64 // bytes/sec of the parameter server NIC
	ClientBandwidth int64 // bytes/sec of each edge client
	Cost            workload.CostModel
}

// OpenFL returns the OpenFL-like profile. The paper's testbed runs every
// component on the same t2.medium instance class (§7.1), so the parameter
// server's NIC matches the edge nodes' — which is precisely why its
// hub-and-spoke traffic becomes the bottleneck under concurrency.
func OpenFL() Profile {
	c := workload.DefaultCostModel()
	c.CoordPerClient = 10 * time.Millisecond
	return Profile{Name: "openfl", ServerBandwidth: 2 << 20, ClientBandwidth: 2 << 20, Cost: c}
}

// FedScale returns the FedScale-like profile (faster coordinator and a
// somewhat beefier serving path, still centralized).
func FedScale() Profile {
	c := workload.DefaultCostModel()
	c.CoordPerClient = 8 * time.Millisecond
	return Profile{Name: "fedscale", ServerBandwidth: 3 << 20, ClientBandwidth: 2 << 20, Cost: c}
}

// Config parameterizes a run.
type Config struct {
	Profile Profile
	// ClientNodes is the size of the shared edge-device pool; apps map
	// their logical clients onto it (so concurrent apps contend for
	// device compute, as in the paper's shared platform).
	ClientNodes int
	Seed        int64
}

// modelDown carries the global model to a selected client.
type modelDown struct {
	App    int
	Round  int
	Client int
	Params []float64
}

func (m modelDown) WireSize() int { return 16 + 4 + 8*len(m.Params) }

// updateUp carries one client's (compressed-on-the-wire) update.
type updateUp struct {
	App    int
	Round  int
	Client int
	Acc    *fl.Accum
	Bytes  int
}

func (u updateUp) WireSize() int { return 24 + u.Bytes }

type appState struct {
	app      *workload.App
	global   []float64
	round    int
	selected []int
	pending  *fl.Accum
	received int
	progress *workload.Progress
	done     bool
	clients  []int // client index -> pool node
	eval     *ml.MLP
}

// Engine is one centralized-baseline deployment.
type Engine struct {
	cfg    Config
	net    *simnet.Network
	server transport.Env
	rng    *rand.Rand

	clientEnv   []transport.Env
	clientQueue []*workload.ComputeQueue

	apps      []*appState
	coordBusy time.Duration
}

// New builds the deployment: one server node plus cfg.ClientNodes edge
// devices, with the apps' logical clients mapped onto the pool.
func New(apps []*workload.App, cfg Config) *Engine {
	if cfg.ClientNodes == 0 {
		cfg.ClientNodes = 50
	}
	e := &Engine{
		cfg: cfg,
		net: simnet.New(simnet.Config{
			Seed:    cfg.Seed,
			Latency: simnet.ConstLatency(5 * time.Millisecond),
		}),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	e.server = e.net.AddNode("server", func(env transport.Env) transport.Handler {
		return transport.HandlerFunc(func(from transport.Addr, msg any) { e.serverRecv(from, msg) })
	})
	e.net.SetBandwidth("server", cfg.Profile.ServerBandwidth)
	for i := 0; i < cfg.ClientNodes; i++ {
		i := i
		addr := transport.Addr(fmt.Sprintf("client%d", i))
		env := e.net.AddNode(addr, func(env transport.Env) transport.Handler {
			return transport.HandlerFunc(func(from transport.Addr, msg any) { e.clientRecv(i, msg) })
		})
		e.net.SetBandwidth(addr, cfg.Profile.ClientBandwidth)
		e.clientEnv = append(e.clientEnv, env)
		e.clientQueue = append(e.clientQueue, &workload.ComputeQueue{})
	}
	for _, app := range apps {
		st := &appState{
			app:      app,
			global:   app.Proto.Params(),
			progress: &workload.Progress{App: app.Name},
			eval:     app.Proto.Clone(),
		}
		// Map logical clients onto pool nodes.
		perm := e.rng.Perm(cfg.ClientNodes)
		for c := range app.Shards {
			st.clients = append(st.clients, perm[c%cfg.ClientNodes])
		}
		e.apps = append(e.apps, st)
	}
	return e
}

// Run starts every app at time zero and drains the simulation; it returns
// each app's recorded trajectory.
func (e *Engine) Run() []*workload.Progress {
	for ai := range e.apps {
		e.scheduleRound(ai)
	}
	e.net.RunUntilIdle()
	out := make([]*workload.Progress, len(e.apps))
	for i, st := range e.apps {
		if !st.done {
			st.progress.Done = e.net.Now()
		}
		out[i] = st.progress
	}
	return out
}

// scheduleRound enqueues the app's next round setup on the coordinator's
// FCFS queue — the "handle them one by one" behaviour of §7.4.
func (e *Engine) scheduleRound(ai int) {
	st := e.apps[ai]
	k := int(math.Ceil(st.app.Participation * float64(len(st.app.Shards))))
	if k < 1 {
		k = 1
	}
	service := time.Duration(k) * e.cfg.Profile.Cost.CoordPerClient
	now := e.server.Now()
	start := now
	if e.coordBusy > start {
		start = e.coordBusy
	}
	e.coordBusy = start + service
	e.server.After(e.coordBusy-now, func() { e.startRound(ai, k) })
}

func (e *Engine) startRound(ai, k int) {
	st := e.apps[ai]
	st.round++
	st.pending = nil
	st.received = 0
	st.selected = st.selected[:0]
	perm := e.rng.Perm(len(st.app.Shards))
	for i := 0; i < k && i < len(perm); i++ {
		st.selected = append(st.selected, perm[i])
	}
	for _, c := range st.selected {
		node := st.clients[c]
		e.server.Send(transport.Addr(fmt.Sprintf("client%d", node)),
			modelDown{App: ai, Round: st.round, Client: c, Params: st.global})
	}
}

func (e *Engine) clientRecv(node int, msg any) {
	m, ok := msg.(modelDown)
	if !ok {
		return
	}
	st := e.apps[m.App]
	client := m.Client
	shard := st.app.Shards[client]
	dur := e.cfg.Profile.Cost.TrainTime(st.app, shard.Len(), 1)
	env := e.clientEnv[node]
	finish := e.clientQueue[node].Start(env.Now(), dur)
	params := m.Params
	// The training inputs are fully known now, so submit the (pure) job to
	// the real worker pool immediately and only wait for it when the
	// simulated compute time has elapsed: wall-clock training overlaps
	// across clients without perturbing virtual time. The client's rng is
	// derived from (app seed, round, client), so results are independent of
	// pool scheduling.
	var up updateUp
	fut := fl.Go(func(ws *ml.Workspace) {
		crng := fl.DeriveRNG(st.app.Seed, m.Round, uint64(client))
		u := fl.LocalTrainWS(st.app.Proto, params, shard, st.app.Cfg, crng, ws)
		if u.Samples == 0 {
			u = fl.Update{Delta: make([]float64, len(params)), Samples: 1}
		}
		recon, bytes := fl.ApplyOwned(st.app.Comp, u.Delta)
		u.Delta = recon
		up = updateUp{App: m.App, Round: m.Round, Client: client, Acc: fl.NewAccumOwning(u), Bytes: bytes}
	})
	env.After(finish-env.Now(), func() {
		fut.Wait()
		env.Send("server", up)
	})
}

func (e *Engine) serverRecv(from transport.Addr, msg any) {
	u, ok := msg.(updateUp)
	if !ok {
		return
	}
	st := e.apps[u.App]
	if st.done || u.Round != st.round {
		return
	}
	st.pending = fl.MergeInPlace(st.pending, u.Acc)
	st.received++
	if st.received < len(st.selected) {
		return
	}
	st.pending.ApplyMean(st.global)
	st.eval.SetParams(st.global)
	acc := fl.Accuracy(st.eval, st.app.Test)
	st.progress.Points = append(st.progress.Points, workload.AccuracyPoint{
		Time: e.server.Now(), Round: st.round, Accuracy: acc,
	})
	if acc >= st.app.TargetAccuracy || st.round >= st.app.MaxRounds {
		st.done = true
		st.progress.Done = e.server.Now()
		st.progress.Reached = acc >= st.app.TargetAccuracy
		return
	}
	e.scheduleRound(u.App)
}
