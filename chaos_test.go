package totoro

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
	"totoro/internal/workload"
)

// chaosCluster is the deployment the chaos harness drives: the full
// resilient stack (reliable hops, keep-alive repair, partial aggregation,
// replicated master state) plus durable, fault-injectable stores and an
// OnViolation handler that records instead of panicking, so tests can
// assert on Net.Violation().
// restartEngine crash-restarts engine i: the node reboots with a rebuilt
// stack (amnesia except for its durable store), then rejoins and resumes
// through Cluster.Restarted.
func restartEngine(c *Cluster, i int) {
	c.Net.Restart(c.Engines[i].Self().Addr)
	c.Restarted(c.Engines[i].Self().Addr)
}

func chaosCluster(seed int64, replicas int) *Cluster {
	return NewCluster(chaosConfig(seed, replicas))
}

func chaosConfig(seed int64, replicas int) ClusterConfig {
	return ClusterConfig{
		N:    60,
		Seed: seed,
		Ring: ring.Config{B: 4, ReliableHops: true, HopAckTimeout: 150 * time.Millisecond},
		PubSub: pubsub.Config{
			KeepAliveInterval: 100 * time.Millisecond,
			KeepAliveTimeout:  300 * time.Millisecond,
			AggTimeout:        2 * time.Second,
		},
		Bandwidth:            2 << 20,
		Replicas:             replicas,
		ReplicaCheckInterval: 300 * time.Millisecond,
		FailoverGrace:        500 * time.Millisecond,
		Durable:              true,
		FaultyStores:         true,
		OnViolation:          func(*simnet.InvariantViolation) {},
	}
}

// chaosSpec is the composed acceptance schedule: nine fault kinds overlap
// around t=2s — a partition that heals, message drop/dup/reorder rules, a
// fleet-wide extra-latency window, two slowed nodes, an asymmetric
// (one-way) partition, a WAL fsync fault window on two nodes, and a
// two-node kill with crash-restart.
const chaosSpec = "partition@1s+2s/frac=0.25;drop@500ms+3s/p=0.1;dup@500ms+3s/p=0.25;" +
	"reorder@1s+2s/p=0.3;delay@800ms+2s/d=30ms;slow@1s+2s/n=2,d=20ms;" +
	"oneway@1200ms+1800ms/frac=0.2;disk@1500ms+1500ms/n=2;kill@2s+1500ms/n=2"

// chaosRounds gives every acceptance run the same horizon: all faults
// heal by t=3.5s, leaving several clean rounds for the fleet to converge
// back onto the fault-free trajectory before the drift comparison.
const chaosRounds = 14

type chaosResult struct {
	points    []workload.AccuracyPoint
	commits   int
	violation *simnet.InvariantViolation
	phases    int
	restarts  int
	dupes     int64 // pubsub.upstream_dupes across the fleet
	snapshot  string
}

// startChaos deploys one app of the given round count on a chaos cluster
// with the invariant checker installed and the given nemesis schedule
// (empty = fault-free baseline) armed; the caller drives the training.
func startChaos(t *testing.T, seed int64, spec string, rounds int) (*Cluster, AppID, *Chaos, *simnet.Nemesis) {
	t.Helper()
	c := chaosCluster(seed, 2)
	id, chaos, nem := startChaosOn(t, c, seed, spec, rounds)
	return c, id, chaos, nem
}

// startChaosOn is startChaos on a cluster the caller built (from
// chaosConfig(seed, 2), possibly with another OnViolation).
func startChaosOn(t *testing.T, c *Cluster, seed int64, spec string, rounds int) (AppID, *Chaos, *simnet.Nemesis) {
	t.Helper()
	app := testApps(1, seed)[0]
	app.MaxRounds = rounds
	app.TargetAccuracy = 0.999 // unreachable: every run does all `rounds` rounds
	// Commit quorum of half the fleet: rounds flushed mid-fault hold for
	// the cut-off workers' updates instead of taking a nearly-empty step.
	app.MinParticipants = len(app.Shards) / 2
	id := c.DeployOnRandomNodes(app)
	chaos := c.StartChaos(ChaosConfig{})
	c.StartMaintenance(500 * time.Millisecond)

	var nem *simnet.Nemesis
	if spec != "" {
		phases, err := simnet.ParseSchedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Data holders and the initial master are exempt, as in a real
		// harness run: chaos measures protocol recovery, not data loss.
		var exempt []transport.Addr
		for i := range c.shards {
			if _, ok := c.shards[i][id]; ok {
				exempt = append(exempt, c.Engines[i].Self().Addr)
			}
		}
		exempt = append(exempt, c.Master(id).Self().Addr)
		nem, err = c.Net.StartNemesis(simnet.NemesisConfig{
			Seed:      seed + 2,
			Phases:    phases,
			Exempt:    exempt,
			OnDisk:    chaos.DiskFault(store.FaultFsync),
			OnRestart: func(addr transport.Addr, _ time.Duration) { c.Restarted(addr) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return id, chaos, nem
}

// runChaos trains startChaos's app to completion and runs the quiesce
// check before returning.
func runChaos(t *testing.T, seed int64, spec string, rounds int) chaosResult {
	t.Helper()
	c, id, chaos, nem := startChaos(t, seed, spec, rounds)
	prog := c.TrainUntil(c.Net.Now()+10*time.Minute, id)[0]
	c.Net.CheckInvariants()

	res := chaosResult{
		points:    prog.Points,
		commits:   chaos.Commits,
		violation: c.Net.Violation(),
		snapshot:  c.Net.MergedSnapshot().String(),
	}
	if nem != nil {
		res.phases, res.restarts = nem.Phases, nem.Restarts
	}
	for _, e := range c.Engines {
		res.dupes += e.Metrics().Counter("pubsub.upstream_dupes").Value()
	}
	return res
}

// TestReplayReachesLiveRoles holds WAL replay to the live engine across
// everything the composed schedule does to the role maps — promotions,
// demotions by a higher epoch, same-epoch tie-breaks, stale and duplicated
// replicas, crash-restarts: every 50ms of virtual time, every alive engine
// with an intact journal must fold from its store, into an engine that was
// never on a network, to the byte-identical snapshot the live engine would
// write (a store is folded again only after an append; the live side is
// compared every time, so an unjournaled mutation shows too).
// TestRecoveredStateMatchesLive checks the same equation once, after a
// fault-free run; this is the guard that keeps Engine.apply honest.
func TestReplayReachesLiveRoles(t *testing.T) {
	// The two acceptance/replay seeds on which masterships actually move.
	seeds := []int64{241, 269}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		c, id, _, _ := startChaos(t, seed, chaosSpec, chaosRounds)
		replayReachesLive(t, c, id, seed)
	}
}

// TestCompactionKeepsReplicaSeed241 is the regression test for a replica
// accepted on the append that triggers compaction: handleReplica journals
// the image before it stores it, so a snapshot taken after that append
// folds the state without the replica and truncates the record away. With
// compaction every third append, seed 241 loses one that way at t=756ms
// unless the snapshot precedes the append.
func TestCompactionKeepsReplicaSeed241(t *testing.T) {
	const seed = 241
	c := chaosCluster(seed, 2)
	stores := setCadence(c, 3)
	id, _, _ := startChaosOn(t, c, seed, chaosSpec, chaosRounds)
	replayReachesLive(t, c, id, seed)
	n := 0
	for _, s := range stores {
		n += s.replicasOnSnap
	}
	if n == 0 {
		t.Fatal("no replica was journaled right after a snapshot")
	}
}

// replayReachesLive trains the app of a started chaos run to completion
// and, every 50ms of virtual time, holds every alive engine with an intact
// journal to its store (see TestReplayReachesLiveRoles).
func replayReachesLive(t *testing.T, c *Cluster, id AppID, seed int64) {
	t.Helper()
	image := func(e *Engine) []byte {
		enc := codec.NewEnc()
		defer enc.Free()
		enc.Value(e.buildSnapshot())
		if err := enc.Err(); err != nil {
			t.Fatal(err)
		}
		return slices.Clone(enc.Bytes())
	}
	c.Engines[0].StartTraining(id)
	folded := make([][]byte, len(c.Engines)) // each store's replayed image ...
	foldedAt := make([]int, len(c.Engines))  // ... as of this many appends
	checked := 0
	for deadline := c.Net.Now() + 10*time.Minute; c.Net.Now() < deadline && !c.allDone([]AppID{id}); {
		c.Net.Run(c.Net.Now() + 50*time.Millisecond)
		for i, live := range c.Engines {
			if !c.Net.Alive(live.Self().Addr) || live.degraded {
				continue
			}
			if n := c.faulty[i].Appends; n != foldedAt[i] {
				replayed := &Engine{}
				if _, err := replayed.replay(c.stores[i]); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, live.Self().Addr, err)
				}
				folded[i], foldedAt[i] = image(replayed), n
			}
			if !bytes.Equal(folded[i], image(live)) {
				replayed := &Engine{}
				replayed.replay(c.stores[i])
				t.Fatalf("seed %d, t=%v: %s replays to a state it does not hold:\nreplayed %s\nlive     %s",
					seed, c.Net.Now(), live.Self().Addr, roles(replayed), roles(live))
			}
			checked++
		}
	}
	if v := c.Net.Violation(); v != nil {
		t.Fatalf("seed %d: %v", seed, v)
	}
	promotions := int64(0)
	for _, e := range c.Engines {
		promotions += e.Metrics().Counter("engine.promotions").Value()
	}
	if promotions == 0 || checked == 0 {
		t.Fatalf("seed %d: %d promotions, %d comparisons: the run no longer moves a mastership", seed, promotions, checked)
	}
}

// roles renders an engine's durable roles without the models.
func roles(e *Engine) string {
	var b strings.Builder
	snap := e.buildSnapshot()
	for kind, reps := range [][]replicaMsg{snap.Masters, snap.Replicas} {
		for _, r := range reps {
			fmt.Fprintf(&b, "%s{%s epoch %d round %d by %s started=%v done=%v at %v, %d points} ",
				[]string{"master", "replica"}[kind], r.Spec.ID.Short(), r.Epoch, r.Round, r.Master.Addr,
				r.Started, r.Done, r.DoneAt, len(r.Points))
		}
	}
	fmt.Fprintf(&b, "self=%s subs=%v", snap.Self.Addr, snap.Subs)
	return b.String()
}

// TestChaosAcceptance is the harness acceptance test: under the composed
// schedule — healed partition, drop/dup/reorder link rules, added latency,
// slowed nodes, a one-way partition, WAL fsync faults, and
// kill–crash-restart all overlapping — training must complete
// every round on every seed with zero invariant violations, and the final
// accuracy must land within 0.02 of the fault-free run of the same seed.
func TestChaosAcceptance(t *testing.T) {
	seeds := []int64{229, 233, 239, 241, 251}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		base := runChaos(t, seed, "", chaosRounds)
		if base.violation != nil {
			t.Fatalf("seed %d: fault-free run violated an invariant:\n%v", seed, base.violation)
		}
		fault := runChaos(t, seed, chaosSpec, chaosRounds)
		if fault.violation != nil {
			t.Fatalf("seed %d: %v", seed, fault.violation)
		}
		if fault.phases < 8 {
			t.Fatalf("seed %d: only %d nemesis phases activated", seed, fault.phases)
		}
		if fault.commits == 0 {
			t.Fatalf("seed %d: checker observed no commits", seed)
		}
		if len(fault.points) == 0 || fault.points[len(fault.points)-1].Round != chaosRounds {
			t.Fatalf("seed %d: training did not complete under faults: %+v", seed, fault.points)
		}
		baseAcc := base.points[len(base.points)-1].Accuracy
		faultAcc := fault.points[len(fault.points)-1].Accuracy
		drift := baseAcc - faultAcc
		if drift < 0 {
			drift = -drift
		}
		if drift > 0.02 {
			t.Fatalf("seed %d: post-heal accuracy drifted: fault-free %.4f vs chaos %.4f (|diff| %.4f > 0.02)",
				seed, baseAcc, faultAcc, drift)
		}
	}
}

// TestChaosRunsAreBitIdentical replays the full chaos scenario — faults,
// crash-restarts, disk windows and all — twice per seed: trajectories,
// commit counts, nemesis activity, and the entire merged telemetry
// snapshot must be bit-identical. This is what makes a violation's seed a
// real repro handle.
func TestChaosRunsAreBitIdentical(t *testing.T) {
	for _, seed := range []int64{263, 269} {
		a := runChaos(t, seed, chaosSpec, chaosRounds)
		b := runChaos(t, seed, chaosSpec, chaosRounds)
		if a.violation != nil || b.violation != nil {
			t.Fatalf("seed %d: violations %v / %v", seed, a.violation, b.violation)
		}
		if a.commits != b.commits || a.phases != b.phases || a.restarts != b.restarts {
			t.Fatalf("seed %d: run shape diverged: commits %d/%d phases %d/%d restarts %d/%d",
				seed, a.commits, b.commits, a.phases, b.phases, a.restarts, b.restarts)
		}
		if len(a.points) != len(b.points) {
			t.Fatalf("seed %d: point counts differ: %d vs %d", seed, len(a.points), len(b.points))
		}
		for i := range a.points {
			if a.points[i] != b.points[i] {
				t.Fatalf("seed %d: round %d diverged: %+v vs %+v", seed, i+1, a.points[i], b.points[i])
			}
		}
		if a.snapshot != b.snapshot {
			t.Fatalf("seed %d: same-seed telemetry snapshots differ", seed)
		}
	}
}

// TestChaosCatchesInjectedRegression proves the checker actually fires:
// simulated engine bugs — replaying an already-committed round, and
// merging more client updates than workers exist — must each produce an
// InvariantViolation carrying the run's seed and a trace excerpt.
func TestChaosCatchesInjectedRegression(t *testing.T) {
	const seed = 271
	inject := func(t *testing.T, wantMsg string, bug func(c *Cluster, m *Engine, id AppID, epoch int)) {
		t.Helper()
		c := chaosCluster(seed, 2)
		app := testApps(1, seed)[0]
		app.MaxRounds = 3
		app.TargetAccuracy = 0.999
		id := c.DeployOnRandomNodes(app)
		c.StartChaos(ChaosConfig{})
		c.StartMaintenance(500 * time.Millisecond)
		c.TrainUntil(c.Net.Now()+10*time.Minute, id)
		if v := c.Net.Violation(); v != nil {
			t.Fatalf("clean run violated an invariant: %v", v)
		}
		m := c.Master(id)
		if m == nil {
			t.Fatal("no master after training")
		}
		bug(c, m, id, m.masters[id].Epoch)
		c.Net.CheckInvariants()
		v := c.Net.Violation()
		if v == nil {
			t.Fatal("injected regression went undetected")
		}
		if v.Seed != seed {
			t.Fatalf("violation seed = %d, want %d", v.Seed, seed)
		}
		if !strings.Contains(v.Err.Error(), wantMsg) {
			t.Fatalf("violation %q does not mention %q", v.Err, wantMsg)
		}
		if !strings.Contains(v.Error(), "deterministic replay") {
			t.Fatalf("violation rendering lacks the replay handle:\n%v", v)
		}
	}

	t.Run("replayed-commit", func(t *testing.T) {
		inject(t, "after already committing", func(_ *Cluster, m *Engine, id AppID, epoch int) {
			// A buggy master acks round 1 again after committing round 3.
			m.AckHook(id, epoch, 1, 1, true)
		})
	})
	t.Run("double-counted-update", func(t *testing.T) {
		inject(t, "double-counted", func(_ *Cluster, m *Engine, id AppID, epoch int) {
			// A buggy merge counts 99 participants against 10 workers.
			m.AckHook(id, epoch, 11, 99, true)
		})
	})
	// The per-tick checks build their messages in cold helpers; the text a
	// seed produces is part of the replay contract, so it is pinned whole.
	t.Run("epoch-regressed", func(t *testing.T) {
		inject(t, "app 17d7fda2: epoch regressed on n34: master at epoch 0 after holding epoch 1",
			func(c *Cluster, m *Engine, id AppID, epoch int) {
				m.masters[id].Epoch = epoch + 1
				c.Net.CheckInvariants()     // the checker witnesses epoch 1 ...
				m.masters[id].Epoch = epoch // ... and then the master falls back
			})
	})
	t.Run("replica-ahead", func(t *testing.T) {
		inject(t, "app 17d7fda2: n34 holds replica round 9 at epoch 0 but no master lineage through that epoch acked past round 3 — replica ahead of master acks",
			func(_ *Cluster, m *Engine, id AppID, epoch int) {
				put(&m.replicas, id, &replicaMsg{Epoch: epoch, Round: 9})
			})
	})
}

// TestChaosCheckDoesNotAllocate pins the checker's cost on a tick that
// finds nothing wrong, which is every tick of a healthy run: no garbage,
// with engines that hold no app, one app and (the sorted path) two.
func TestChaosCheckDoesNotAllocate(t *testing.T) {
	const seed = 283
	c := NewCluster(ClusterConfig{
		N: 20, Seed: seed, Ring: ring.Config{B: 4}, Bandwidth: 2 << 20,
		Replicas: 2, ReplicaCheckInterval: 300 * time.Millisecond, Durable: true,
		OnViolation: func(*simnet.InvariantViolation) {},
	})
	var ids []AppID
	for _, app := range testApps(4, seed) {
		app.MaxRounds = 3
		app.TargetAccuracy = 0.999
		ids = append(ids, c.DeployOnRandomNodes(app))
	}
	ch := c.StartChaos(ChaosConfig{})
	c.Train(ids...)
	if v := c.Net.Violation(); v != nil {
		t.Fatalf("clean run violated an invariant: %v", v)
	}
	most := 0
	for _, e := range c.Engines {
		most = max(most, len(e.masters), len(e.replicas))
	}
	if most < 2 {
		t.Fatalf("no engine holds two apps (most: %d); the sorted path is not exercised", most)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ch.check(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a clean invariant check allocated %.0f times, want 0", allocs)
	}
}

func TestSortedApps(t *testing.T) {
	if got := sortedApps(map[AppID]int(nil)); got != nil {
		t.Fatalf("sortedApps of an empty map = %v, want nil", got)
	}
	m := map[AppID]bool{}
	for _, name := range []string{"d", "a", "e", "c", "b"} {
		m[NewAppID(name, "owner")] = true
	}
	scratch := make([]AppID, 0, 8)
	for _, got := range [][]AppID{sortedApps(m), appendSortedApps(scratch, m)} {
		if len(got) != len(m) || !slices.IsSortedFunc(got, AppID.Cmp) {
			t.Fatalf("not the map's keys in ID order: %v", got)
		}
	}
	if got := appendSortedApps(scratch, m); &got[0] != &scratch[:1][0] {
		t.Fatal("appendSortedApps did not reuse the scratch slice")
	}
}

// TestRepeatedKillRestartSameNode crash-restarts the app's original
// master node three times in one run. Every rebirth must recover from the
// WAL, re-arm (re-join, reconcile mastership with whoever was promoted in
// the meantime), and training must still complete all rounds with the
// invariant checker clean — catching any state that survives one restart
// but not the second.
func TestRepeatedKillRestartSameNode(t *testing.T) {
	const seed = 277
	c := chaosCluster(seed, 2)
	app := testApps(1, seed)[0]
	app.MaxRounds = 10
	app.TargetAccuracy = 0.999
	id := c.DeployOnRandomNodes(app)
	c.StartChaos(ChaosConfig{})
	c.StartMaintenance(500 * time.Millisecond)

	victim := c.Master(id).Self().Addr
	victimIdx := c.EngineIndex(victim)
	original := c.Engines[victimIdx]

	var workerIdx int = -1
	for i := range c.shards {
		if _, ok := c.shards[i][id]; ok {
			workerIdx = i
			break
		}
	}
	c.Engines[workerIdx].StartTraining(id)

	rounds := func() int {
		if m := c.Master(id); m != nil {
			if p, ok := m.Progress(id); ok {
				return len(p.Points)
			}
		}
		return 0
	}

	deadline := c.Net.Now() + 10*time.Minute
	kills := 0
	var killedAt time.Duration
	down := false
	for c.Net.Now() < deadline && !c.allDone([]AppID{id}) {
		c.Net.Run(c.Net.Now() + 100*time.Millisecond)
		if down && c.Net.Now() >= killedAt+time.Second {
			restartEngine(c, victimIdx)
			down = false
		}
		if !down && kills < 3 && rounds() >= 2*(kills+1) && c.Net.Alive(victim) {
			c.Net.Fail(victim)
			killedAt = c.Net.Now()
			kills++
			down = true
		}
	}
	if down {
		restartEngine(c, victimIdx)
	}

	if kills != 3 {
		t.Fatalf("killed the node %d times, want 3", kills)
	}
	if v := c.Net.Violation(); v != nil {
		t.Fatalf("invariant violated across repeated restarts:\n%v", v)
	}
	c.Net.CheckInvariants()
	if v := c.Net.Violation(); v != nil {
		t.Fatalf("quiesce check failed:\n%v", v)
	}
	if c.Engines[victimIdx] == original {
		t.Fatal("restart did not rebuild the engine")
	}
	if !c.Engines[victimIdx].Recovered() {
		t.Fatal("final rebirth did not recover from the WAL")
	}
	recoveries := 0
	for _, e := range c.Engines {
		recoveries += int(e.Metrics().Counter("engine.recoveries").Value())
	}
	if recoveries < 3 {
		t.Fatalf("recoveries = %d, want >= 3 (one per rebirth)", recoveries)
	}
	prog := c.Progress(id)
	if prog == nil || len(prog.Points) == 0 {
		t.Fatal("no progress recorded")
	}
	if last := prog.Points[len(prog.Points)-1].Round; last != 10 {
		t.Fatalf("training ended at round %d, want 10", last)
	}
}

// TestStoreFaultDegradesLoudly opens an fsync fault window on the live
// master's store mid-training and asserts the journal-before-ack
// hardening: the engine degrades to non-durable with the store.degraded
// gauge raised, never journals again even after the fault window closes
// (appending past a gap would turn the clean WAL prefix into
// ack-then-lose), keeps training, and a later crash-restart recovers the
// clean pre-fault prefix and retrains to completion — all under the
// invariant checker.
func TestStoreFaultDegradesLoudly(t *testing.T) {
	const seed = 281
	c := chaosCluster(seed, 0) // no replicas: WAL recovery is the only path
	app := testApps(1, seed)[0]
	app.MaxRounds = 10
	app.TargetAccuracy = 0.999
	id := c.DeployOnRandomNodes(app)
	c.StartChaos(ChaosConfig{})
	c.StartMaintenance(500 * time.Millisecond)

	var workerIdx int = -1
	for i := range c.shards {
		if _, ok := c.shards[i][id]; ok {
			workerIdx = i
			break
		}
	}
	c.Engines[workerIdx].StartTraining(id)

	runUntilRounds := func(n int) {
		deadline := c.Net.Now() + 10*time.Minute
		for c.Net.Now() < deadline {
			if m := c.Master(id); m != nil {
				if p, ok := m.Progress(id); ok && len(p.Points) >= n {
					return
				}
			}
			c.Net.Run(c.Net.Now() + 100*time.Millisecond)
		}
		t.Fatalf("never reached %d rounds", n)
	}

	runUntilRounds(2)
	m := c.Master(id)
	masterIdx := c.EngineIndex(m.Self().Addr)
	faulty := c.faulty[masterIdx]
	if faulty.Appends == 0 {
		t.Fatal("master journaled nothing before the fault window")
	}
	faulty.Fail(store.FaultFsync)

	runUntilRounds(5)
	if !m.degraded {
		t.Fatal("master kept a failing journal without degrading")
	}
	if got := m.Metrics().Gauge("store.degraded").Value(); got != 1 {
		t.Fatalf("store.degraded = %v, want 1", got)
	}
	if m.Metrics().Counter("store.errors").Value() == 0 {
		t.Fatal("degrade raised no store.errors")
	}
	if faulty.Failed == 0 {
		t.Fatal("fault window rejected no appends")
	}

	// Close the window: a hardened engine must NOT resume journaling —
	// the log may have a gap, and appends past it replay as a clean
	// prefix that silently drops everything after the gap.
	appendsAtHeal := faulty.Appends
	faulty.Heal()
	runUntilRounds(7)
	if faulty.Appends != appendsAtHeal {
		t.Fatalf("degraded engine appended %d records after the fault healed",
			faulty.Appends-appendsAtHeal)
	}

	// Crash the degraded master: recovery replays the clean pre-fault
	// prefix (rounds acked before the fault are never lost) and training
	// finishes from there.
	c.Net.Fail(m.Self().Addr)
	c.Net.Run(c.Net.Now() + time.Second)
	restartEngine(c, masterIdx)

	deadline := c.Net.Now() + 10*time.Minute
	for c.Net.Now() < deadline && !c.allDone([]AppID{id}) {
		c.Net.Run(c.Net.Now() + 100*time.Millisecond)
	}
	c.Net.CheckInvariants()
	if v := c.Net.Violation(); v != nil {
		t.Fatalf("invariant violated across degrade + crash-restart:\n%v", v)
	}
	reborn := c.Engines[masterIdx]
	if !reborn.Recovered() {
		t.Fatal("restarted master did not recover from its clean WAL prefix")
	}
	if reborn.degraded {
		t.Fatal("rebirth on a healthy store reports degraded")
	}
	prog := c.Progress(id)
	if prog == nil || len(prog.Points) == 0 {
		t.Fatal("no progress recorded")
	}
	if last := prog.Points[len(prog.Points)-1].Round; last != 10 {
		t.Fatalf("training ended at round %d, want 10", last)
	}
}

// TestDupInjectionIsDeduped runs training under a certain-duplication
// link rule: every upstream update arrives at least twice. The per-sender
// sequence dedup must discard the copies — observable in the
// pubsub.upstream_dupes counter — and the checker's participant
// accounting (merged participants <= deployed workers) must stay clean.
func TestDupInjectionIsDeduped(t *testing.T) {
	const seed = 283
	c := chaosCluster(seed, 2)
	app := testApps(1, seed)[0]
	app.MaxRounds = 6
	app.TargetAccuracy = 0.999
	id := c.DeployOnRandomNodes(app)
	c.StartChaos(ChaosConfig{})
	c.StartMaintenance(500 * time.Millisecond)
	heal := c.Net.AddLinkRule(simnet.LinkRule{Dup: 1.0})
	defer heal()

	prog := c.TrainUntil(c.Net.Now()+10*time.Minute, id)[0]
	c.Net.CheckInvariants()
	if v := c.Net.Violation(); v != nil {
		t.Fatalf("duplicated traffic broke an invariant (double-counted update?):\n%v", v)
	}
	if len(prog.Points) == 0 || prog.Points[len(prog.Points)-1].Round != 6 {
		t.Fatalf("training did not complete under duplication: %+v", prog.Points)
	}
	if c.Net.Metrics().Counter("net.dup_injected").Value() == 0 {
		t.Fatal("dup rule injected nothing")
	}
	dupes := int64(0)
	for _, e := range c.Engines {
		dupes += e.Metrics().Counter("pubsub.upstream_dupes").Value()
	}
	if dupes == 0 {
		t.Fatal("no duplicate upstream updates were caught by the seq dedup")
	}
}
