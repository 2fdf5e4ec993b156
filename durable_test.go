package totoro

import (
	"slices"
	"sort"
	"testing"
	"time"

	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/store"
	"totoro/internal/workload"
)

// durableCluster is a deployment where crash-restart recovery is the ONLY
// resilience path: every node journals to a durable store, but Replicas is
// zero, so a dead master has no successor to fail over to — training can
// resume only if the restarted node reconstructs its state from the WAL.
// ExactSizes routes all traffic accounting through the v2 codec at the
// same time, so these runs also exercise the byte-parity path end to end.
func durableCluster(seed int64) *Cluster {
	return NewCluster(ClusterConfig{
		N:    60,
		Seed: seed,
		Ring: ring.Config{B: 4, ReliableHops: true, HopAckTimeout: 150 * time.Millisecond},
		PubSub: pubsub.Config{
			KeepAliveInterval: 100 * time.Millisecond,
			KeepAliveTimeout:  300 * time.Millisecond,
			AggTimeout:        2 * time.Second,
		},
		Bandwidth:     2 << 20,
		FailoverGrace: 500 * time.Millisecond,
		Durable:       true,
		ExactSizes:    true,
	})
}

// durableResult captures one run of the crash-restart scenario.
type durableResult struct {
	prog       *workload.Progress
	recoveries int
	downFor    time.Duration
}

// runDurableRestart trains one app to 8 rounds. With kill set, the app's
// master is crashed as soon as two rounds have completed, left dead for a
// second of virtual time, and then restarted — rebooting with amnesia
// except for its durable store. killWorker crashes a worker instead.
// Without compact no store is ever snapshotted.
func runDurableRestart(t *testing.T, seed int64, kill, killWorker, compact bool) durableResult {
	t.Helper()
	c := durableCluster(seed)
	if !compact {
		setCadence(c, 0)
	}
	app := testApps(1, seed)[0]
	app.MaxRounds = 8
	app.TargetAccuracy = 0.999 // unreachable: every run does all 8 rounds

	id := NewAppID(app.Name, "cluster")
	// Rank engines by closeness to the app key so the rendezvous master is
	// known up front; workers are placed off it (we crash the master by
	// hand, and the driver must be able to hand shards back on restart).
	order := make([]int, len(c.Engines))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return ids.Closer(id, c.Engines[order[a]].Self().ID, c.Engines[order[b]].Self().ID)
	})
	masterIdx := order[0]
	var workers []int
	for i := 0; i < len(c.Engines) && len(workers) < len(app.Shards); i++ {
		if i != masterIdx {
			workers = append(workers, i)
		}
	}
	if got := c.Deploy(app, workers[0], workers); got != id {
		t.Fatalf("deployed id %s != precomputed %s", got, id)
	}
	c.StartMaintenance(500 * time.Millisecond)
	c.Engines[workers[0]].StartTraining(id)

	victimIdx := masterIdx
	if killWorker {
		victimIdx = workers[0]
	}
	victim := c.Engines[victimIdx]
	preCrashID := victim.Self().ID
	victimAddr := victim.Self().Addr

	deadline := c.Net.Now() + 10*time.Minute
	var killedAt, restartedAt time.Duration
	killed, restarted := false, false
	for c.Net.Now() < deadline {
		c.Net.Run(c.Net.Now() + 100*time.Millisecond)
		if (kill || killWorker) && !killed {
			if m := c.Master(id); m != nil {
				if p, ok := m.Progress(id); ok && len(p.Points) >= 2 {
					c.Net.Fail(victimAddr)
					killed, killedAt = true, c.Net.Now()
				}
			}
		}
		if killed && !restarted && c.Net.Now() >= killedAt+time.Second {
			restartEngine(c, victimIdx)
			restarted, restartedAt = true, c.Net.Now()
		}
		if c.allDone([]AppID{id}) {
			break
		}
	}
	if kill || killWorker {
		if !killed {
			t.Fatal("victim never reached two completed rounds")
		}
		if !restarted {
			t.Fatal("victim was never restarted")
		}
		// The restart rebuilt the stack; the recovered engine must have
		// reclaimed its pre-crash ring identity from the WAL, not rolled a
		// fresh random one (a new ID would strand the app key's ownership).
		reborn := c.Engines[victimIdx]
		if reborn == victim {
			t.Fatal("restart did not rebuild the engine")
		}
		if reborn.Self().ID != preCrashID {
			t.Fatalf("recovered identity %s != pre-crash %s", reborn.Self().ID.Short(), preCrashID.Short())
		}
		if !reborn.Recovered() {
			t.Fatal("restarted engine does not report recovery from its store")
		}
	}
	prog := c.Progress(id)
	if prog == nil {
		t.Fatal("no progress recorded")
	}
	recoveries := 0
	for _, e := range c.Engines {
		recoveries += int(e.Metrics().Counter("engine.recoveries").Value())
	}
	return durableResult{prog: prog, recoveries: recoveries, downFor: restartedAt - killedAt}
}

// TestCrashRestartResumesTraining is the acceptance test for the
// durability tentpole: with no replicas configured, the master of a live
// app is crashed mid-round and restarted from its write-ahead log; the
// recovered master must resume training from the last committed round,
// finish all rounds gaplessly, and land within two accuracy points of an
// uninterrupted run.
func TestCrashRestartResumesTraining(t *testing.T) {
	const seed = 171
	base := runDurableRestart(t, seed, false, false, true)
	killRun := runDurableRestart(t, seed, true, false, true)

	if base.recoveries != 0 {
		t.Fatalf("baseline run recovered %d engines with nobody crashed", base.recoveries)
	}
	if killRun.recoveries < 1 {
		t.Fatalf("recoveries = %d, want >= 1", killRun.recoveries)
	}

	// Training resumed from the journaled round: one strictly increasing
	// sequence, no gap and no repeat across the crash, ending at MaxRounds.
	points := killRun.prog.Points
	if len(points) == 0 {
		t.Fatal("kill run recorded no rounds")
	}
	for i, pt := range points {
		if pt.Round != i+1 {
			t.Fatalf("round sequence broken at %d: %+v", i, pt)
		}
	}
	if last := points[len(points)-1].Round; last != 8 {
		t.Fatalf("kill run ended at round %d, want 8", last)
	}

	baseAcc := base.prog.Points[len(base.prog.Points)-1].Accuracy
	killAcc := points[len(points)-1].Accuracy
	diff := baseAcc - killAcc
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.02 {
		t.Fatalf("final accuracy diverged: baseline %.4f vs crash-restart %.4f (|diff| %.4f > 0.02)",
			baseAcc, killAcc, diff)
	}
}

// TestCrashRestartIsDeterministic replays the crash-restart scenario twice
// with the same seed: the recovered trajectories must be bit-identical.
func TestCrashRestartIsDeterministic(t *testing.T) {
	const seed = 173
	a := runDurableRestart(t, seed, true, false, true)
	b := runDurableRestart(t, seed, true, false, true)
	if a.recoveries != b.recoveries {
		t.Fatalf("recoveries differ: %d vs %d", a.recoveries, b.recoveries)
	}
	if len(a.prog.Points) != len(b.prog.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.prog.Points), len(b.prog.Points))
	}
	for i := range a.prog.Points {
		if a.prog.Points[i] != b.prog.Points[i] {
			t.Fatalf("round %d diverged: %+v vs %+v", i+1, a.prog.Points[i], b.prog.Points[i])
		}
	}
}

// TestSnapshotCadenceInvariant pins that compaction is purely a
// space/recovery-time trade: recovering from (snapshot + WAL tail) must
// reconstruct exactly the state that replaying the whole journal of a
// never-compacted store reconstructs. Any divergence means the snapshot
// fold and the record replay disagree about engine state.
func TestSnapshotCadenceInvariant(t *testing.T) {
	const seed = 177
	compacted := runDurableRestart(t, seed, true, false, true)
	whole := runDurableRestart(t, seed, true, false, false)
	if len(compacted.prog.Points) != len(whole.prog.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(compacted.prog.Points), len(whole.prog.Points))
	}
	for i := range compacted.prog.Points {
		if compacted.prog.Points[i] != whole.prog.Points[i] {
			t.Fatalf("round %d diverged between a compacted and a whole journal: %+v vs %+v",
				i+1, compacted.prog.Points[i], whole.prog.Points[i])
		}
	}
}

// cadenceStore replaces a store's size rule with a count: it is outgrown
// once every appends have landed since its last snapshot, and never when
// every is 0. replicasOnSnap counts the replicas journaled by the first
// append after a snapshot.
type cadenceStore struct {
	store.Store
	every, since   int
	fresh          bool
	replicasOnSnap int
}

func (s *cadenceStore) Append(rec any) error {
	if _, ok := rec.(walReplica); ok && s.fresh {
		s.replicasOnSnap++
	}
	s.fresh = false
	err := s.Store.Append(rec)
	if err == nil {
		s.since++
	}
	return err
}

func (s *cadenceStore) Snapshot(state any) error {
	err := s.Store.Snapshot(state)
	if err == nil {
		s.since, s.fresh = 0, true
	}
	return err
}

func (s *cadenceStore) Outgrown() bool { return s.every > 0 && s.since >= s.every }

// setCadence puts every engine of a new cluster c, and every engine a
// Restart builds, on a cadenceStore over the store it had, which holds the
// identity record NewEngine journaled.
func setCadence(c *Cluster, every int) []*cadenceStore {
	out := make([]*cadenceStore, len(c.stores))
	for i := range c.stores {
		out[i] = &cadenceStore{Store: c.stores[i], every: every, since: 1}
		c.stores[i] = out[i]
		c.Engines[i].store = out[i]
	}
	return out
}

// TestWorkerCrashRestartRejoins crashes a data-holding worker instead of
// the master: the restarted worker must recover its subscription from the
// WAL, be handed its shard back by the driver, and rejoin the tree — and
// the app (whose master kept running on partial aggregates in the
// meantime) must still complete every round.
func TestWorkerCrashRestartRejoins(t *testing.T) {
	const seed = 179
	res := runDurableRestart(t, seed, false, true, true)
	if res.recoveries < 1 {
		t.Fatalf("recoveries = %d, want >= 1", res.recoveries)
	}
	points := res.prog.Points
	if len(points) == 0 {
		t.Fatal("run recorded no rounds")
	}
	for i, pt := range points {
		if pt.Round != i+1 {
			t.Fatalf("round sequence broken at %d: %+v", i, pt)
		}
	}
	if last := points[len(points)-1].Round; last != 8 {
		t.Fatalf("run ended at round %d, want 8", last)
	}
}

// TestRecoveredStateMatchesLive kills and restarts the master, then
// compares the recovered master's durable image against what an engine
// that never crashed would journal: the WAL's fold of the mutation stream
// must equal the live engine's in-memory state at every commit point. The
// telemetry counters make the journaling itself observable — every run
// with a store must append, and a master's journal of model images must
// outgrow its snapshot.
func TestRecoveredStateMatchesLive(t *testing.T) {
	const seed = 181
	c := durableCluster(seed)
	app := testApps(1, seed)[0]
	app.MaxRounds = 4
	app.TargetAccuracy = 0.999
	id := c.DeployOnRandomNodes(app)
	c.StartMaintenance(500 * time.Millisecond)
	c.TrainUntil(c.Net.Now()+4*time.Hour, id)

	appends, snapshots := 0, 0
	for _, e := range c.Engines {
		appends += int(e.Metrics().Counter("store.appends").Value())
		snapshots += int(e.Metrics().Counter("store.snapshots").Value())
	}
	if appends == 0 {
		t.Fatal("durable cluster trained without a single WAL append")
	}
	if snapshots == 0 {
		t.Fatal("durable cluster trained without a single snapshot")
	}
	errs := 0
	for _, e := range c.Engines {
		errs += int(e.Metrics().Counter("store.errors").Value())
	}
	if errs != 0 {
		t.Fatalf("store.errors = %d, want 0", errs)
	}

	// Crash-restart the master and verify the reconstructed image: same
	// committed round, same epoch lineage, same recorded trajectory.
	m := c.Master(id)
	if m == nil {
		t.Fatal("no master after training")
	}
	var masterIdx int
	for i, e := range c.Engines {
		if e == m {
			masterIdx = i
		}
	}
	before, ok := m.Progress(id)
	if !ok {
		t.Fatal("master has no progress")
	}
	c.Net.Fail(m.Self().Addr)
	c.Net.Run(c.Net.Now() + time.Second)
	restartEngine(c, masterIdx)
	c.Net.Run(c.Net.Now() + 5*time.Second)

	reborn := c.Engines[masterIdx]
	if !reborn.Recovered() || !reborn.IsMaster(id) {
		t.Fatal("restarted master did not recover its mastership")
	}
	after, ok := reborn.Progress(id)
	if !ok {
		t.Fatal("recovered master has no progress")
	}
	if len(after.Points) != len(before.Points) {
		t.Fatalf("recovered %d trajectory points, live master had %d", len(after.Points), len(before.Points))
	}
	for i := range after.Points {
		if after.Points[i] != before.Points[i] {
			t.Fatalf("recovered point %d = %+v, live %+v", i, after.Points[i], before.Points[i])
		}
	}
	if after.Reached != before.Reached || after.Done != before.Done {
		t.Fatalf("recovered completion (%v,%v) != live (%v,%v)",
			after.Reached, after.Done, before.Reached, before.Done)
	}
}

// TestMasterFromImageCopies: a mastership built from an image owns its model
// and trajectory. Replica holders share one copy of an image (replicate), so
// two of them promoting from it and stepping their models in place, as
// commit does, must leave the image untouched.
func TestMasterFromImageCopies(t *testing.T) {
	img := replicaMsg{
		Spec:   AppSpec{ID: NewAppID("copies", "test")},
		Round:  1,
		Global: []float64{1, 2, 3},
		Points: make([]workload.AccuracyPoint, 1, 4), // room to append in place
	}
	img.Points[0] = workload.AccuracyPoint{Round: 1, Accuracy: 0.5}
	want := img.own()
	for i := range 2 {
		m := img.Own().(*replicaMsg)
		fl.NewAccum(fl.Update{Delta: []float64{1, 1, 1}, Samples: 1}).ApplyMean(m.Global)
		m.Points = append(m.Points, workload.AccuracyPoint{Round: 2, Accuracy: float64(i)})
	}
	if !slices.Equal(img.Global, want.Global) {
		t.Fatalf("image model %v after the promoted masters stepped theirs, want %v", img.Global, want.Global)
	}
	// An append in place would land in the slot just past the image's end.
	if got := img.Points[:2]; got[0] != want.Points[0] || got[1] != (workload.AccuracyPoint{}) {
		t.Fatalf("image trajectory storage %+v after the promoted masters appended to theirs", got)
	}
}

// TestRejoinResumesOnceJoined steps a crash-restarted durable worker through
// Engine.Rejoin one event at a time: it resumes its recovered roles only
// after its ring reports the join, and within one 50 ms poll of it. An
// engine crash-restarted again, before its ring joined or between the join
// and the next poll, never resumes that first incarnation; the next one
// resumes in its place.
func TestRejoinResumesOnceJoined(t *testing.T) {
	const poll = 50 * time.Millisecond
	for _, again := range []string{"", "before join", "after join"} {
		c := durableCluster(183)
		id := c.DeployOnRandomNodes(testApps(1, 183)[0])
		w := slices.IndexFunc(c.Engines, func(e *Engine) bool { return e.workers[id] != nil })
		// A slow link stretches the join over several polls.
		c.Net.SetBandwidth(c.Engines[w].Self().Addr, 8<<10)
		restartEngine(c, w)
		first := c.Engines[w]
		if !first.Recovered() {
			t.Fatalf("%q: the restarted worker recovered nothing", again)
		}
		cur, bootAt, joinedAt := first, c.Net.Now(), time.Duration(-1)
	run:
		for c.Net.Now() < bootAt+5*time.Second {
			if joinedAt < 0 && cur.Ring().Joined() {
				joinedAt = c.Net.Now()
				if joinedAt-bootAt <= poll {
					t.Fatalf("%q: joined %v after the restart, within the first poll", again, joinedAt-bootAt)
				}
			}
			switch {
			case cur.resumed && joinedAt < 0:
				t.Fatalf("%q: resumed at %v before its ring joined", again, c.Net.Now())
			case cur.resumed && c.Net.Now()-joinedAt > poll:
				t.Fatalf("%q: joined at %v but resumed only at %v", again, joinedAt, c.Net.Now())
			case cur.resumed:
				break run
			case cur == first && c.Net.Now() > bootAt &&
				(again == "before join" && joinedAt < 0 || again == "after join" && joinedAt >= 0):
				restartEngine(c, w)
				cur, bootAt, joinedAt = c.Engines[w], c.Net.Now(), -1
				continue
			}
			c.Net.Step()
		}
		if !cur.resumed {
			t.Fatalf("%q: the worker never resumed", again)
		}
		if again != "" && (cur == first || first.resumed) {
			t.Fatalf("%q: first incarnation resumed=%v, final incarnation is the first: %v",
				again, first.resumed, cur == first)
		}
	}
}
