package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	totoro "totoro"
	"totoro/internal/ml"
	"totoro/internal/obs"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

// spec is one benchmark workload: a simulated fleet, the FL applications
// deployed on it, and how long they train. The system is closed (no arrival
// process): every app starts at once and runs exactly Rounds rounds, because
// the target accuracy is set out of reach.
type spec struct {
	Name string
	// Fleet seeds everything structural: node IDs and routing tables, worker
	// placement and, under chaos, the nemesis's victims and draws. It is part
	// of the workload, like the node count; --seed re-draws the applications
	// (datasets, shards, model initialisation, training randomness). Tree
	// shapes decide virtual round time to ±10 % and fault runs are chaotic in
	// the strict sense — across fleet seeds chaos-60's virtual round time
	// spreads by a fifth — so a fleet drawn from --seed would bury any
	// regression bound under seed-to-seed spread that says nothing about the
	// engine.
	Fleet int64
	// Why is the one-line reason the workload exists (BENCHMARK.json "why").
	Why              string
	Nodes, Apps      int
	Workers, Samples int
	Task             workload.Task
	Hidden           int // hidden-layer width replacing MakeApps' default; 0 keeps it
	Rounds           int
	Durable          bool
	Chaos            bool
	AccFloor         float64 // final_accuracy below this fails the run
}

// workloads is the fixed set; BENCHMARK.json lists the same names and
// reasons. Round counts are sized so one repetition (a fresh process that
// sets up and trains once) takes 3–7 s on a 2-core box and a 20 s run fits
// at least three; chaos-60 is the acceptance test's own small fleet, takes
// under a second and fits twenty. README.md "Workloads" says why each size
// is what it is. The accuracy floors are three quarters of the lowest final
// accuracy seen over seeds (README.md "Correctness gate"), so a model that
// stopped learning fails the run.
var workloads = []spec{
	{
		Name:  "fleet-50k",
		Why:   "50k nodes, 16 small trees: construction and per-node state do most of the work (half the run is set-up, 1.4 GB live heap); the bypass case for protocol-layer work",
		Nodes: 50000, Apps: 16, Workers: 200, Samples: 8, Task: workload.TaskFEMNIST, Hidden: 4, Rounds: 20, Fleet: 1,
		AccFloor: 0.11,
	},
	{
		Name:  "forest-10k",
		Why:   "16 trees of 600 workers on 10k nodes: half a million small messages, so pubsub multicast/aggregate, simnet dispatch, the trace ring and GC dominate and ml is a small share",
		Nodes: 10000, Apps: 16, Workers: 600, Samples: 6, Task: workload.TaskFEMNIST, Hidden: 4, Rounds: 16, Fleet: 1,
		AccFloor: 0.13,
	},
	{
		Name:  "bigmodel-1k",
		Why:   "261 KB updates on 1k durable nodes, few events: ml kernels, fl merges, codec frame sizing and master-image journaling dominate; the bypass case for ring/pubsub/simnet work",
		Nodes: 1000, Apps: 4, Workers: 30, Samples: 60, Task: workload.TaskFEMNIST, Hidden: 256, Rounds: 40, Durable: true, Fleet: 1,
		AccFloor: 0.70,
	},
	{
		Name:  "chaos-60",
		Why:   "chaos_test's 60-node resilient fleet under its fault schedule minus partitions: timers, hop acks, probes, keep-alives, WAL append/replay, crash-restart and the invariant checker, not model traffic",
		Nodes: 60, Apps: 1, Workers: 10, Samples: 120, Task: workload.TaskSpeech, Rounds: 40, Durable: true, Chaos: true, Fleet: 7,
		AccFloor: 0.45,
	},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// chaosSchedule is chaosSpec, the acceptance schedule of chaos_test.go,
// without its `partition` and `oneway` phases; the other seven are verbatim
// (10 % drops included) and overlap around t=2s. Partitions are what make
// the engine promote a second master, and the engine does not survive that
// reliably: on this very fleet shape — chaos_test's 60 nodes and one app —
// chaosSpec ends in a stuck app or an invariant violation on 14 of fleet
// seeds 1–50, the seven-phase schedule on 1 of 100 (README.md "Findings"). A
// benchmark needs workloads on which no operation fails, so chaos-60 does
// not exercise failover or split-brain: engine.promotions reads 0 (on all
// but one of data seeds 1–500).
const chaosSchedule = "drop@500ms+3s/p=0.1;dup@500ms+3s/p=0.25;reorder@1s+2s/p=0.3;" +
	"delay@800ms+2s/d=30ms;slow@1s+2s/n=2,d=20ms;disk@1500ms+1500ms/n=2;kill@2s+1500ms/n=2"

// clusterConfig is the deployment every workload shares — exact v2 frame
// sizes, 2 MB/s NICs, fanout 16 — plus, for chaos, the resilient stack
// exactly as `totoro-sim -nemesis` configures it.
func (w spec) clusterConfig() totoro.ClusterConfig {
	cfg := totoro.ClusterConfig{
		N:          w.Nodes,
		Seed:       w.Fleet,
		Ring:       ring.Config{B: 4},
		Bandwidth:  2 << 20,
		ExactSizes: true,
		Durable:    w.Durable,
	}
	if w.Chaos {
		cfg.Ring.ReliableHops = true
		cfg.Ring.HopAckTimeout = 150 * time.Millisecond
		cfg.PubSub = pubsub.Config{
			KeepAliveInterval: 100 * time.Millisecond,
			KeepAliveTimeout:  300 * time.Millisecond,
			AggTimeout:        2 * time.Second,
		}
		cfg.Replicas = 2
		cfg.ReplicaCheckInterval = 300 * time.Millisecond
		cfg.FailoverGrace = 500 * time.Millisecond
		cfg.FaultyStores = true
	}
	return cfg
}

// makeApps generates the workload's applications from the seed. MakeApps
// fixes the hidden layer at 48; the workloads need a tiny model (so messages
// are small) or a big one (so they are not), so the prototype is replaced,
// seeded from the app's own seed.
func (w spec) makeApps(seed int64) []*workload.App {
	apps := workload.MakeApps(workload.Params{
		Task:             w.Task,
		Apps:             w.Apps,
		ClientsPerApp:    w.Workers,
		SamplesPerClient: w.Samples,
		Seed:             seed,
	})
	for _, a := range apps {
		a.MaxRounds = w.Rounds
		a.TargetAccuracy = 2 // unreachable: every app runs exactly Rounds rounds
		if w.Hidden > 0 {
			s := a.Proto.Sizes
			a.Proto = ml.NewMLP([]int{s[0], w.Hidden, s[len(s)-1]}, rand.New(rand.NewSource(a.Seed)))
		}
		if w.Chaos {
			a.MinParticipants = len(a.Shards) / 2
		}
	}
	return apps
}

// placement draws each app's worker nodes the way cmd/totoro-sim does: one
// seeded permutation of the fleet per app, the first worker owning the tree.
func (w spec) placement(apps []*workload.App) [][]int {
	placer := rand.New(rand.NewSource(w.Fleet))
	out := make([][]int, len(apps))
	for i, a := range apps {
		out[i] = placer.Perm(w.Nodes)[:len(a.Shards)]
	}
	return out
}

// rep is what one repetition — one process that sets a workload up and
// trains it once — measured. The parent aggregates reps into the reported
// medians.
type rep struct {
	// Phase wall times. SetupS is their sum plus, for chaos, arming the
	// checker and the nemesis.
	ConstructS, MakeAppsS, DeployS, SetupS float64
	TrainWallS, TrainCPUS                  float64
	Mallocs                                uint64  // over the train phase
	Committed, Failed                      int     // rounds committed; rounds not committed plus every other gate miss
	VirtualS                               float64 // training start → an app's last commit, mean over apps
	BytesOut                               int64   // net.bytes_out over the train phase
	FinalAcc                               float64
	Digest                                 string
	Counts                                 map[string]int64
	Problems                               []string

	// Traced fleet only.
	AddNodeS, BuildStaticS float64
	HeapAfterConstruct     uint64
	Events                 int64
	AfterN                 int64
	Spans                  map[string]spanSum

	// Filled in by the parent from the child's rusage.
	PeakRSSMB float64
}

// appOutcome is what the digest and the correctness gate need from one app.
type appOutcome struct {
	points []workload.AccuracyPoint
	params []float64
}

// simDigest hashes everything simulated that a user could observe: traffic
// totals, the final virtual time, and each app's per-round trajectory and
// final parameter bits. Two runs of one seed must agree on it, the traced
// fleet must reproduce it, and a change meant only to make the engine faster
// must leave it unchanged. The event count is left out on purpose: it is
// simulator-internal and reported as simnet.events.
func simDigest(total obs.Snapshot, now time.Duration, apps []appOutcome) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(total.Counters[transport.CtrMsgsOut]))
	put(uint64(total.Counters[transport.CtrBytesOut]))
	put(uint64(now))
	for _, a := range apps {
		put(uint64(len(a.points)))
		for _, p := range a.points {
			put(uint64(p.Time))
			put(uint64(p.Round))
			put(math.Float64bits(p.Accuracy))
			put(uint64(p.Participants))
		}
		put(uint64(len(a.params)))
		for _, v := range a.params {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// trainWindow brackets the train phase: wall clock, process CPU, heap
// allocation count, and the fleet's counters.
type trainWindow struct {
	start   time.Time
	cpu     float64
	mallocs uint64
	before  obs.Snapshot
	vstart  time.Duration
}

func openWindow(net *simnet.Network) trainWindow {
	w := trainWindow{before: net.MergedSnapshot(), vstart: net.Now()}
	// Collect set-up garbage now, so every repetition enters the train phase
	// with the same heap goal: without this a multi-GB fleet runs one or two
	// GC cycles in the phase depending on where set-up happened to leave the
	// pacer, and train_cpu_s comes out bimodal.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs
	w.cpu = processCPU()
	w.start = time.Now()
	return w
}

// close fills r's train-phase fields and returns the fleet's end-of-run
// totals for the digest.
func (w trainWindow) close(net *simnet.Network, r *rep) obs.Snapshot {
	r.TrainWallS = time.Since(w.start).Seconds()
	r.TrainCPUS = processCPU() - w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Mallocs = ms.Mallocs - w.mallocs
	total := net.MergedSnapshot()
	delta := total.Delta(w.before)
	r.BytesOut = delta.Counters[transport.CtrBytesOut]
	r.Counts = make(map[string]int64)
	for _, name := range counterNames() {
		r.Counts[name] = delta.Counters[name]
	}
	return total
}

// judge applies the correctness gate to a finished run and fills the
// outcome fields of r: exactly Rounds commits per app, final accuracy above
// the workload's floor, and the digest.
func (w spec) judge(r *rep, total obs.Snapshot, now, vstart time.Duration, apps []appOutcome) {
	for i, a := range apps {
		r.Committed += min(len(a.points), w.Rounds)
		if len(a.points) != w.Rounds || a.points[w.Rounds-1].Round != w.Rounds {
			r.Problems = append(r.Problems, fmt.Sprintf("app %d committed %d of %d rounds", i, len(a.points), w.Rounds))
		}
		if n := len(a.points); n > 0 {
			r.FinalAcc += a.points[n-1].Accuracy / float64(len(apps))
			r.VirtualS += (a.points[n-1].Time - vstart).Seconds() / float64(len(apps))
		}
	}
	r.Failed += w.Apps*w.Rounds - r.Committed
	if r.FinalAcc < w.AccFloor {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf("final accuracy %.4f below the floor %.4f", r.FinalAcc, w.AccFloor))
	}
	r.Digest = simDigest(total, now, apps)
}

// runCluster is one untraced repetition through the public API:
// NewCluster, MakeApps, Deploy, Train, MergedSnapshot.
func runCluster(w spec, seed int64) rep {
	var r rep
	var violations []*simnet.InvariantViolation
	cfg := w.clusterConfig()
	if w.Chaos {
		cfg.OnViolation = func(v *simnet.InvariantViolation) { violations = append(violations, v) }
	}

	t0 := time.Now()
	c := totoro.NewCluster(cfg)
	t1 := time.Now()
	apps := w.makeApps(seed)
	t2 := time.Now()
	var ids []totoro.AppID
	var exempt []transport.Addr
	for i, workers := range w.placement(apps) {
		ids = append(ids, c.Deploy(apps[i], workers[0], workers))
		for _, n := range workers {
			exempt = append(exempt, c.Engines[n].Self().Addr)
		}
	}
	t3 := time.Now()
	if w.Chaos {
		// Data holders and the initial masters are exempt from kills, as in
		// totoro-sim: chaos measures protocol recovery, not data loss.
		for _, id := range ids {
			exempt = append(exempt, c.Master(id).Self().Addr)
		}
		c.StartMaintenance(500 * time.Millisecond)
		chaos := c.StartChaos(totoro.ChaosConfig{})
		phases, err := simnet.ParseSchedule(chaosSchedule)
		if err == nil {
			_, err = c.Net.StartNemesis(simnet.NemesisConfig{
				Seed:      w.Fleet + 2,
				Phases:    phases,
				Exempt:    exempt,
				OnDisk:    chaos.DiskFault(store.FaultFsync),
				OnRestart: func(addr transport.Addr, _ time.Duration) { c.Restarted(addr) },
			})
		}
		if err != nil {
			r.Failed++
			r.Problems = append(r.Problems, "nemesis: "+err.Error())
		}
	}
	r.ConstructS = t1.Sub(t0).Seconds()
	r.MakeAppsS = t2.Sub(t1).Seconds()
	r.DeployS = t3.Sub(t2).Seconds()
	r.SetupS = time.Since(t0).Seconds()

	win := openWindow(c.Net)
	var progress []*workload.Progress
	if w.Chaos {
		// Keep-alive and probe timers never drain the queue; bound the run in
		// virtual time so a stuck app fails the gate instead of hanging.
		progress = c.TrainUntil(c.Net.Now()+2*time.Minute, ids...)
	} else {
		progress = c.Train(ids...)
	}
	total := win.close(c.Net, &r)

	if w.Chaos {
		c.Net.CheckInvariants() // quiesce check
		for _, v := range violations {
			r.Failed++
			r.Problems = append(r.Problems, "invariant violation: "+v.Err.Error())
		}
	}
	outcomes := make([]appOutcome, len(ids))
	for i, id := range ids {
		if progress[i] != nil {
			outcomes[i].points = progress[i].Points
		}
		if m := c.Master(id); m != nil {
			outcomes[i].params, _ = m.GlobalParams(id)
		}
	}
	w.judge(&r, total, c.Net.Now(), win.vstart, outcomes)
	return r
}
