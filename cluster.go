package totoro

import (
	"math/rand"
	"strconv"
	"time"

	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/ml"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
	"totoro/internal/workload"
)

// ClusterConfig describes a simulated Totoro deployment.
type ClusterConfig struct {
	// N is the number of edge nodes.
	N int
	// Seed drives every random choice in the deployment.
	Seed int64
	// Ring configures the overlay (B = log2 fanout).
	Ring ring.Config
	// PubSub configures the forest layer.
	PubSub pubsub.Config
	// Bandwidth is each node's NIC speed in bytes/sec (0 = unlimited).
	Bandwidth int64
	// ZoneBits enables the multi-ring zone structure; ZoneOf assigns each
	// node a zone (required when ZoneBits > 0).
	ZoneBits int
	ZoneOf   func(node int) uint64
	// VirtualNodesOf maps a physical host to the number of logical P2P
	// nodes it runs (the paper's heterogeneity mechanism, §7.5):
	// resource-rich hosts run several logical nodes — owning
	// proportionally more of the ID space and therefore more master/
	// aggregator roles — while all logical nodes of one host share a
	// single compute queue. Nil means one logical node per host; N then
	// counts physical hosts either way.
	//lint:ignore unused the paper's §7.5 heterogeneity mechanism (DESIGN row 18)
	VirtualNodesOf func(host int) int
	// Replicas, ReplicaCheckInterval, and FailoverGrace configure master
	// failover on every engine (see Options). Replicas = 0 disables it.
	Replicas             int
	ReplicaCheckInterval time.Duration
	FailoverGrace        time.Duration
	// Durable gives every engine an in-memory durable store (the simnet
	// stand-in for a node's on-disk WAL — byte-identical journals, see
	// internal/store): node state then survives Restart, making
	// crash-restart a first-class churn event.
	Durable bool
	// FaultyStores wraps every engine's durable store in a fault-injecting
	// wrapper (store.Faulty) so a nemesis schedule can fail disks mid-run;
	// requires Durable; the chaos harness's "disk" phases fail and heal them.
	FaultyStores bool
	// ExactSizes routes simulated message-size accounting through the v2
	// wire codec (see simnet.Config.Sizer).
	ExactSizes bool
	// OnViolation handles invariant violations found by the chaos checker
	// (see simnet.Config.OnViolation; nil panics with the violation).
	OnViolation func(*simnet.InvariantViolation)
	// Observer sees every delivered message (see simnet.Config.Observer).
	Observer func(from, to transport.Addr, size int)
}

// Cluster is a whole simulated Totoro deployment: N engines on a
// deterministic virtual network, plus the bookkeeping that evaluates
// model accuracy and records training trajectories.
type Cluster struct {
	Net     *simnet.Network
	Engines []*Engine
	// HostOf maps each engine index to its physical host index.
	HostOf []int

	cfg  ClusterConfig
	rng  *rand.Rand
	apps map[AppID]*clusterApp
	// stores holds each engine's durable store (nil entries when Durable is
	// off); shards remembers which data shard each engine holds per app, so
	// a crash-restarted engine can be handed its data back (the store
	// journals the subscription, the driver owns the bytes). A Restart
	// rebuilds the engine on stores[i] as it then stands, so a test may
	// wrap it.
	stores []store.Store
	faulty []*store.Faulty
	shards []map[AppID]*ml.Dataset
	// onBuild, when set, runs on every engine built after cluster
	// construction (i.e. crash-restart rebuilds) so per-engine hooks — the
	// chaos checker's AckHook in particular — survive a Restart.
	onBuild func(idx int, e *Engine)
	// maintainEvery remembers the StartMaintenance interval so a
	// crash-restarted engine's rebuilt ring node gets its probe loop back.
	maintainEvery time.Duration
}

type clusterApp struct {
	app    *workload.App
	eval   *ml.MLP
	spec   AppSpec
	master int // engine index, resolved lazily
}

// nodeHeapBytes sizes a fleet's huge-page reservation per node: set-up
// takes 6 KiB a node on fleet-50k and 13 KiB on forest-10k, whose peak RSS
// is 16 KiB a node (DESIGN.md §4.8 "Memory").
const nodeHeapBytes = 24 << 10

// reserveHeap is swapped out by a test that shows placement never reaches
// a result.
var reserveHeap = simnet.ReserveHugePages

// NewCluster builds the deployment: engines with zoned or uniform IDs on
// a statically wired overlay.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.N <= 0 {
		panic("totoro: cluster needs N > 0")
	}
	c := &Cluster{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		apps: make(map[AppID]*clusterApp),
	}
	// Engines share no state with one another, so the fleet is isolated and
	// its thick windows run on every core (DESIGN.md §4.8) — unless a host
	// runs several logical nodes, which then share the host's compute queue.
	netCfg := simnet.Config{
		Seed:             cfg.Seed,
		Latency:          simnet.ConstLatency(5 * time.Millisecond),
		DefaultBandwidth: cfg.Bandwidth,
		OnViolation:      cfg.OnViolation,
		Observer:         cfg.Observer,
		Isolated:         cfg.VirtualNodesOf == nil,
	}
	if cfg.ExactSizes {
		RegisterWire() // exact accounting encodes through the codec registry
		netCfg.Sizer = codec.FrameSize
	}
	c.Net = simnet.New(netCfg)
	reserveHeap(int64(cfg.N) * nodeHeapBytes)
	var ringNodes []*ring.Node
	logical := 0
	for host := 0; host < cfg.N; host++ {
		virtual := 1
		if cfg.VirtualNodesOf != nil {
			if v := cfg.VirtualNodesOf(host); v > 0 {
				virtual = v
			}
		}
		// All logical nodes of one host serialize compute on one queue and
		// split the host NIC.
		queue := &workload.ComputeQueue{}
		for v := 0; v < virtual; v++ {
			addr := transport.Addr("n" + strconv.Itoa(logical))
			if virtual > 1 {
				addr = transport.Addr("n" + strconv.Itoa(host) + "." + strconv.Itoa(v))
			}
			logical++
			id := ids.Random(c.rng)
			if cfg.ZoneBits > 0 && cfg.ZoneOf != nil {
				id = ids.MakeZoned(cfg.ZoneOf(host), cfg.ZoneBits, id)
			}
			// The store outlives the engine: a Restart rebuilds the stack via
			// this closure, and the rebooted engine recovers from the same
			// store a real node would find on its disk.
			var st store.Store
			var fs *store.Faulty
			if cfg.Durable {
				st = store.NewMem()
				if cfg.FaultyStores {
					fs = store.NewFaulty(st)
					st = fs
				}
			}
			idx := len(c.Engines)
			c.stores = append(c.stores, st)
			c.faulty = append(c.faulty, fs)
			var eng *Engine
			c.Net.AddNode(addr, func(env transport.Env) transport.Handler {
				eng = NewEngine(env, ring.Contact{ID: id, Addr: addr}, Options{
					Ring:                 cfg.Ring,
					PubSub:               cfg.PubSub,
					ZoneBits:             cfg.ZoneBits,
					Queue:                queue,
					Eval:                 c.evalApp,
					Replicas:             cfg.Replicas,
					ReplicaCheckInterval: cfg.ReplicaCheckInterval,
					FailoverGrace:        cfg.FailoverGrace,
					Store:                c.stores[idx],
				})
				if idx < len(c.Engines) {
					c.Engines[idx] = eng // rebuild via Restart: replace the corpse
				}
				if c.onBuild != nil {
					c.onBuild(idx, eng)
				}
				return eng
			})
			if cfg.Bandwidth > 0 && virtual > 1 {
				c.Net.SetBandwidth(addr, cfg.Bandwidth/int64(virtual))
			}
			c.Engines = append(c.Engines, eng)
			c.HostOf = append(c.HostOf, host)
			c.shards = append(c.shards, nil)
			ringNodes = append(ringNodes, eng.Ring())
		}
	}
	ring.BuildStatic(ringNodes, c.rng)
	return c
}

// evalApp is the accuracy oracle installed into every engine: it scores an
// app's parameters on the app's held-out test set. It is instrumentation
// and consumes no simulated time.
func (c *Cluster) evalApp(app AppID, params []float64) float64 {
	reg, ok := c.apps[app]
	if !ok {
		return 0
	}
	reg.eval.SetParams(params)
	return fl.Accuracy(reg.eval, reg.app.Test)
}

// Deploy registers a workload app, creates its tree from the owner node,
// and subscribes the given worker nodes with their shards (shard i goes to
// workers[i]). It returns the AppID after the tree has settled.
func (c *Cluster) Deploy(app *workload.App, owner int, workers []int) AppID {
	id := NewAppID(app.Name, "cluster")
	spec := SpecFromWorkload(id, app)
	c.apps[id] = &clusterApp{app: app, eval: app.Proto.Clone(), spec: spec, master: -1}
	c.Engines[owner].CreateTree(spec)
	c.settle()
	for i, w := range workers {
		shard := app.Shards[i%len(app.Shards)]
		if err := c.Engines[w].Subscribe(id, shard, spec.ZoneRestricted); err != nil {
			panic(err)
		}
		put(&c.shards[w], id, shard)
	}
	c.settle()
	return id
}

// settle advances the network until quiescent: with keep-alive timers in
// play the event queue never drains, so a bounded window is run instead.
func (c *Cluster) settle() {
	if ka := c.cfg.PubSub.KeepAliveInterval; ka > 0 {
		c.Net.Run(c.Net.Now() + 5*ka)
		return
	}
	c.Net.RunUntilIdle()
}

// DeployOnRandomNodes deploys the app with one worker per shard placed on
// distinct random nodes.
func (c *Cluster) DeployOnRandomNodes(app *workload.App) AppID {
	n := len(c.Engines)
	if len(app.Shards) > n {
		panic("totoro: more shards than nodes")
	}
	perm := c.rng.Perm(n)
	return c.Deploy(app, perm[len(app.Shards)%n], perm[:len(app.Shards)])
}

// Train starts every given app concurrently and runs the simulation to
// completion; it returns each app's trajectory in the same order. With
// keep-alives enabled (periodic timers never drain the event queue) it
// steps time until every app finishes, up to a generous deadline.
func (c *Cluster) Train(appIDs ...AppID) []*workload.Progress {
	if c.cfg.PubSub.KeepAliveInterval > 0 {
		return c.TrainUntil(c.Net.Now()+4*time.Hour, appIDs...)
	}
	return c.train(appIDs, func() { c.Net.RunUntilIdle() })
}

// TrainUntil starts the apps and advances virtual time in slices until all
// of them complete or the deadline passes — the driver to use when
// keep-alive timers (or churn injected between slices via Hooks) keep the
// event queue busy forever.
func (c *Cluster) TrainUntil(deadline time.Duration, appIDs ...AppID) []*workload.Progress {
	return c.train(appIDs, func() { c.StepUntilDone(deadline, appIDs...) })
}

// train starts every app, runs the network with run, and returns each app's
// trajectory in order. Any node can issue a start: a random engine's goes
// through the overlay's routing to the app's master.
func (c *Cluster) train(appIDs []AppID, run func()) []*workload.Progress {
	for _, id := range appIDs {
		c.Engines[c.rng.Intn(len(c.Engines))].StartTraining(id)
	}
	run()
	out := make([]*workload.Progress, len(appIDs))
	for i, id := range appIDs {
		out[i] = c.Progress(id)
	}
	return out
}

// StepUntilDone advances time in 100ms slices until every listed app's
// master reports done, the deadline passes, or the network runs out of
// events (a slice that ends with the clock short of its end).
func (c *Cluster) StepUntilDone(deadline time.Duration, appIDs ...AppID) {
	for c.Net.Now() < deadline {
		end := c.Net.Now() + 100*time.Millisecond
		c.Net.Run(end)
		if c.allDone(appIDs) || c.Net.Now() < end {
			return
		}
	}
}

func (c *Cluster) allDone(appIDs []AppID) bool {
	for _, id := range appIDs {
		m := c.Master(id)
		if m == nil {
			return false
		}
		p, _ := m.Progress(id)
		if p == nil || p.Done == 0 {
			return false
		}
	}
	return true
}

// Progress finds the app's master and returns its recorded trajectory. For
// an unfinished app Done is the current time.
func (c *Cluster) Progress(id AppID) *workload.Progress {
	m := c.Master(id)
	if m == nil {
		return nil
	}
	p, _ := m.Progress(id)
	if p.Done == 0 {
		p.Done = c.Net.Now()
	}
	return p
}

// Master returns the engine currently mastering the app, or nil. A dead
// node's engine keeps its master state in memory, so only engines whose
// node is alive count — after a failover the promoted successor is
// returned, not the corpse.
func (c *Cluster) Master(id AppID) *Engine {
	reg := c.apps[id]
	if reg != nil && reg.master >= 0 {
		if e := c.Engines[reg.master]; e.IsMaster(id) && c.Net.Alive(e.Self().Addr) {
			return e
		}
	}
	for i, e := range c.Engines {
		if e.IsMaster(id) && c.Net.Alive(e.Self().Addr) {
			if reg != nil {
				reg.master = i
			}
			return e
		}
	}
	return nil
}

// Restarted completes a crash-restart that the network layer already
// performed (a nemesis kill or churn phase calls Network.Restart itself;
// pass this as NemesisConfig.OnRestart). It plays the role a node's init
// system plays in a real deployment: hand the recovered engine its data shards
// (the store journals *that* the node works for an app; the driver owns
// the bytes) and rejoin it through a live bootstrap node (Engine.Rejoin).
func (c *Cluster) Restarted(addr transport.Addr) {
	idx := c.EngineIndex(addr)
	if idx < 0 {
		return
	}
	eng := c.Engines[idx]
	for _, app := range sortedApps(c.shards[idx]) {
		eng.AttachShard(app, c.shards[idx][app])
	}
	if c.maintainEvery > 0 {
		eng.Ring().StartMaintenance(c.maintainEvery)
	}
	var bootstrap transport.Addr
	for _, a := range c.Net.Addrs() {
		if a != addr && c.Net.Alive(a) {
			bootstrap = a
			break
		}
	}
	if bootstrap == "" {
		return // nobody to rejoin through; the next restart will retry
	}
	eng.Rejoin(bootstrap)
}

// StartMaintenance starts periodic leaf-set maintenance on every engine's
// ring node — required for failover: it is what scrubs a dead master from
// the successors' routing state so ring ownership of the app key moves.
// Note the probe timers keep the event queue busy forever; drive the
// network with Run/StepUntilDone, not RunUntilIdle, after calling this.
func (c *Cluster) StartMaintenance(interval time.Duration) {
	c.maintainEvery = interval
	for _, e := range c.Engines {
		e.Ring().StartMaintenance(interval)
	}
}

// Rand returns the deployment's random stream. NewCluster draws the node
// IDs and then the overlay wiring from it; placements and start nodes come
// from it after that.
func (c *Cluster) Rand() *rand.Rand { return c.rng }

// Env returns engine i's network endpoint, for traffic sent beside the
// engine's own protocols.
func (c *Cluster) Env(i int) transport.Env { return c.Engines[i].env }

// EngineIndex maps a node address to its engine index (-1 if unknown).
func (c *Cluster) EngineIndex(addr transport.Addr) int {
	for i, e := range c.Engines {
		if e.Self().Addr == addr {
			return i
		}
	}
	return -1
}
