package totoro

import (
	"sort"
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/mastership"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

// failoverCluster is a deployment configured for churn survival: reliable
// hops, keep-alive tree repair, semi-synchronous rounds, and master-state
// replication to two successors.
func failoverCluster(seed int64) *Cluster {
	return NewCluster(ClusterConfig{
		N:    60,
		Seed: seed,
		Ring: ring.Config{B: 4, ReliableHops: true, HopAckTimeout: 150 * time.Millisecond},
		PubSub: pubsub.Config{
			KeepAliveInterval: 100 * time.Millisecond,
			KeepAliveTimeout:  300 * time.Millisecond,
			AggTimeout:        2 * time.Second,
		},
		Bandwidth:            2 << 20,
		Replicas:             2,
		ReplicaCheckInterval: 300 * time.Millisecond,
		FailoverGrace:        500 * time.Millisecond,
	})
}

// failoverResult captures one run of the churn/failover scenario.
type failoverResult struct {
	prog         *workload.Progress
	promotions   int
	promoteDelay time.Duration
}

// runFailover trains one app under background churn. With kill set, the
// app's master is killed as soon as two rounds have completed, and the run
// additionally measures how long a successor took to promote itself.
func runFailover(t *testing.T, seed int64, kill bool) failoverResult {
	t.Helper()
	c := failoverCluster(seed)
	app := testApps(1, seed)[0]
	app.MaxRounds = 8
	app.TargetAccuracy = 0.999 // unreachable: every run does all 8 rounds

	id := NewAppID(app.Name, "cluster")
	// Rank engines by closeness to the app key: order[0] is the rendezvous
	// master, the next few are its replica-holding successors. Those stay
	// exempt from background churn — the master dies by our hand, and the
	// test measures failover, not total state loss.
	order := make([]int, len(c.Engines))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return ids.Closer(id, c.Engines[order[a]].Self().ID, c.Engines[order[b]].Self().ID)
	})
	protected := map[int]bool{}
	for _, i := range order[:5] {
		protected[i] = true
	}
	var workers []int
	for i := 0; i < len(c.Engines) && len(workers) < len(app.Shards); i++ {
		if !protected[i] {
			workers = append(workers, i)
		}
	}
	owner := workers[0]
	if got := c.Deploy(app, owner, workers); got != id {
		t.Fatalf("deployed id %s != precomputed %s", got, id)
	}
	c.StartMaintenance(500 * time.Millisecond)

	var exempt []transport.Addr
	for i := range protected {
		exempt = append(exempt, c.Engines[i].Self().Addr)
	}
	for _, w := range workers {
		exempt = append(exempt, c.Engines[w].Self().Addr)
	}
	if _, err := c.Net.StartNemesis(simnet.NemesisConfig{
		Seed:   seed + 7,
		Exempt: exempt,
		Phases: []simnet.Phase{{
			Kind: "churn", Start: c.Net.Now(), Dur: 10 * time.Minute,
			Params: map[string]string{"mtbf": "500ms", "down": "3s"},
		}},
	}); err != nil {
		t.Fatal(err)
	}

	c.Engines[owner].StartTraining(id)

	deadline := c.Net.Now() + 10*time.Minute
	var killedAt, promotedAt time.Duration
	var masterAddr transport.Addr
	killed, promoted := false, false
	for c.Net.Now() < deadline {
		c.Net.Run(c.Net.Now() + 100*time.Millisecond)
		if kill && !killed {
			if m := c.Master(id); m != nil {
				if p, ok := m.Progress(id); ok && len(p.Points) >= 2 {
					masterAddr = m.Self().Addr
					c.Net.Fail(masterAddr)
					killed, killedAt = true, c.Net.Now()
				}
			}
		}
		if killed && !promoted {
			if m := c.Master(id); m != nil && m.Self().Addr != masterAddr {
				promoted, promotedAt = true, c.Net.Now()
			}
		}
		if c.allDone([]AppID{id}) {
			break
		}
	}
	if kill {
		if !killed {
			t.Fatal("master never reached two completed rounds")
		}
		if !promoted {
			t.Fatal("no successor promoted itself after the master died")
		}
	}
	prog := c.Progress(id)
	if prog == nil {
		t.Fatal("no progress recorded")
	}
	// Promotion counts are asserted through the telemetry registry — the
	// same numbers a live deployment would serve from /metrics.
	promos := 0
	for _, e := range c.Engines {
		promos += int(e.Metrics().Counter("engine.promotions").Value())
	}
	return failoverResult{prog: prog, promotions: promos, promoteDelay: promotedAt - killedAt}
}

// TestMasterFailoverResumesTraining is the acceptance test for the
// failover tentpole: the master of a live app is killed mid-round under
// background churn; a leaf-set successor must promote itself within
// bounded virtual time, resume from the last replicated round, finish all
// rounds, and land within two accuracy points of the no-kill run.
func TestMasterFailoverResumesTraining(t *testing.T) {
	const seed = 71
	base := runFailover(t, seed, false)
	killRun := runFailover(t, seed, true)

	if base.promotions != 0 {
		t.Fatalf("baseline run promoted %d masters with nobody killed", base.promotions)
	}
	if killRun.promotions < 1 {
		t.Fatalf("promotions = %d, want >= 1", killRun.promotions)
	}
	if killRun.promoteDelay > 5*time.Second {
		t.Fatalf("successor took %v to promote (bound 5s)", killRun.promoteDelay)
	}

	// Training resumed from the replicated round: the trajectory is one
	// strictly increasing round sequence ending at MaxRounds, with no gap
	// and no repeat at the failover point.
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
		t.Fatalf("final accuracy diverged: baseline %.4f vs kill %.4f (|diff| %.4f > 0.02)",
			baseAcc, killAcc, diff)
	}
}

// TestMasterFailoverIsDeterministic replays the kill scenario twice with
// the same seed: the recovered trajectories must be bit-identical.
func TestMasterFailoverIsDeterministic(t *testing.T) {
	const seed = 73
	a := runFailover(t, seed, true)
	b := runFailover(t, seed, true)
	if a.promotions != b.promotions {
		t.Fatalf("promotions differ: %d vs %d", a.promotions, b.promotions)
	}
	if a.promoteDelay != b.promoteDelay {
		t.Fatalf("promotion delay differs: %v vs %v", a.promoteDelay, b.promoteDelay)
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

// TestBeatBackPlantsReplicaAhead replays the explorer's class (e) finding
// (internal/mastership, TestExplorerFindings) through live engines on a
// three-node cluster, and the always-on checker reports it. n0 masters the
// app and its start ack reaches n1; n0 is cut off; n1 promotes at epoch 1
// and begins round 1; the partition heals and n0's claim image, delayed,
// reaches n1; n1 beats it back with the image of its round in flight (bug
// (ii)), and n0 keeps round 1 of epoch 1 as its replica, ahead of every
// ack. This is the regression seed for the fix of bug (ii), which flips it:
// the beat-back then carries the committed image.
func TestBeatBackPlantsReplicaAhead(t *testing.T) {
	var v *simnet.InvariantViolation
	c := NewCluster(ClusterConfig{
		N: 3, Seed: 1, Ring: ring.Config{B: 4},
		Replicas: 2, ReplicaCheckInterval: 100 * time.Millisecond, FailoverGrace: 100 * time.Millisecond,
		OnViolation: func(got *simnet.InvariantViolation) { v = got },
	})
	app := testApps(1, 1)[0]
	id := NewAppID(app.Name, "cluster")
	n := []int{0, 1, 2}
	sort.Slice(n, func(a, b int) bool { return ids.Closer(id, c.Engines[n[a]].Self().ID, c.Engines[n[b]].Self().ID) })
	n0, n1 := c.Engines[n[0]], c.Engines[n[1]]
	c.Deploy(app, n[2], n[1:])
	m := n0.master(id)
	if m == nil || m.Started {
		t.Fatalf("%s does not hold the unstarted mastership", n0.Self().Addr)
	}
	claim := n0.image(m, m.Stamp()).own() // the image n0 replicated when it claimed the app
	c.StartChaos(ChaosConfig{})
	c.StartMaintenance(100 * time.Millisecond)
	n0.StartTraining(id)
	for rep := n1.findRole(id).Replica; !rep.Started; rep = n1.findRole(id).Replica {
		c.Net.Run(c.Net.Now() + 10*time.Millisecond)
	}
	if n0.findRole(id).Phase != mastership.Collecting {
		t.Fatalf("%s committed round 1 before the start ack reached %s", n0.Self().Addr, n1.Self().Addr)
	}

	heal := c.Net.Partition([]transport.Addr{n0.Self().Addr}, []transport.Addr{n1.Self().Addr, c.Engines[n[2]].Self().Addr})
	for deadline := c.Net.Now() + 10*time.Second; ; {
		if r := n1.findRole(id); r.Master != nil && r.Master.Epoch == 1 && r.Phase.InFlight() {
			break
		}
		if c.Net.Now() > deadline {
			t.Fatalf("%s did not promote and begin a round", n1.Self().Addr)
		}
		c.Net.Run(c.Net.Now() + 10*time.Millisecond)
	}
	heal()
	n0.env.Send(n1.Self().Addr, claim)
	for deadline := c.Net.Now() + time.Second; v == nil && c.Net.Now() < deadline; {
		c.Net.Run(c.Net.Now() + 10*time.Millisecond)
	}
	want := "app " + id.Short() + ": " + string(n0.Self().Addr) +
		" holds replica round 1 at epoch 1 but no master lineage through that epoch acked past round 0 — replica ahead of master acks"
	if v == nil || v.Err.Error() != want {
		t.Fatalf("violation %v, want %q", v, want)
	}
}
