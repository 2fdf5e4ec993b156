package totoro

import (
	"testing"
	"time"

	"totoro/internal/baseline"
	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/ring"
	"totoro/internal/workload"
)

func testApps(n int, seed int64) []*workload.App {
	apps := workload.MakeApps(workload.Params{
		Task:             workload.TaskSpeech,
		Apps:             n,
		ClientsPerApp:    10,
		SamplesPerClient: 40,
		Seed:             seed,
	})
	for _, a := range apps {
		a.MaxRounds = 10
		a.TargetAccuracy = 0.40
	}
	return apps
}

func testCluster(n int, seed int64) *Cluster {
	return NewCluster(ClusterConfig{
		N:         n,
		Seed:      seed,
		Ring:      ring.Config{B: 4},
		Bandwidth: 2 << 20,
	})
}

func TestSingleAppTrainsOnCluster(t *testing.T) {
	c := testCluster(60, 1)
	app := testApps(1, 1)[0]
	id := c.DeployOnRandomNodes(app)

	// Exactly one master, and it is the rendezvous node.
	master := c.Master(id)
	if master == nil {
		t.Fatal("no master after deploy")
	}
	best := c.Engines[0]
	for _, e := range c.Engines[1:] {
		if ids.Closer(id, e.Self().ID, best.Self().ID) {
			best = e
		}
	}
	if master != best {
		t.Fatalf("master %s is not the rendezvous node %s", master.Self().Addr, best.Self().Addr)
	}

	prog := c.Train(id)[0]
	if len(prog.Points) == 0 {
		t.Fatal("no rounds recorded")
	}
	last := prog.Points[len(prog.Points)-1]
	first := prog.Points[0]
	if last.Accuracy <= first.Accuracy {
		t.Fatalf("no learning: %.3f -> %.3f", first.Accuracy, last.Accuracy)
	}
	if !prog.Reached && last.Round != app.MaxRounds {
		t.Fatalf("stopped early: %+v", last)
	}
	if last.Participants != len(app.Shards) {
		t.Fatalf("participants=%d want %d (full participation)", last.Participants, len(app.Shards))
	}
	// Virtual time advanced: rounds cost compute + communication.
	if prog.Done <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestConcurrentAppsFinishInParallel(t *testing.T) {
	// The headline property: because each app has its own master and tree,
	// N concurrent apps take barely longer than one.
	finish := func(n int, seed int64) time.Duration {
		c := testCluster(80, seed)
		appList := testApps(n, seed)
		idsList := make([]AppID, n)
		for i, a := range appList {
			idsList[i] = c.DeployOnRandomNodes(a)
		}
		var worst time.Duration
		for _, p := range c.Train(idsList...) {
			if p.Done > worst {
				worst = p.Done
			}
		}
		return worst
	}
	t1 := finish(1, 7)
	t4 := finish(4, 7)
	if t4 > time.Duration(float64(t1)*1.6) {
		t.Fatalf("4 concurrent apps (%v) degraded far beyond 1 app (%v)", t4, t1)
	}
}

func TestMastersAreDistributed(t *testing.T) {
	c := testCluster(100, 3)
	apps := testApps(12, 3)
	counts := map[string]int{}
	for _, a := range apps {
		a.MaxRounds = 0 // never train; just build trees
		id := c.DeployOnRandomNodes(a)
		m := c.Master(id)
		if m == nil {
			t.Fatal("missing master")
		}
		counts[string(m.Self().Addr)]++
	}
	for addr, n := range counts {
		if n > 4 {
			t.Fatalf("node %s masters %d of 12 apps", addr, n)
		}
	}
}

func TestTable2CustomBroadcastAggregate(t *testing.T) {
	c := testCluster(50, 4)
	topic := NewAppID("custom-sensor-fusion", "tester")
	got := map[string]int{}
	var rootSum int
	var rootCount int
	for _, e := range c.Engines {
		e := e
		e.SetCallbacks(Callbacks{
			OnBroadcast: func(app AppID, obj any, depth int, subscriber bool) {
				if subscriber {
					got[string(e.Self().Addr)]++
				}
			},
			Combine: func(app AppID, a, b any) any { return a.(int) + b.(int) },
			OnAggregate: func(app AppID, round int, obj any, count int) {
				rootSum = obj.(int)
				rootCount = count
			},
		})
	}
	subs := []int{3, 7, 11, 19, 23, 29, 31, 37}
	for _, i := range subs {
		c.Engines[i].SubscribeTopic(topic)
	}
	c.Net.RunUntilIdle()
	c.Engines[subs[0]].Broadcast(topic, "hello-workers")
	c.Net.RunUntilIdle()
	if len(got) != len(subs) {
		t.Fatalf("broadcast reached %d subscribers want %d", len(got), len(subs))
	}
	// Everyone attached contributes 1; the root should see the total.
	members := 0
	for _, e := range c.Engines {
		if info, ok := e.PubSub().TreeInfo(topic); ok && info.Attached {
			members++
			e.Aggregate(topic, 1, 1)
		}
	}
	c.Net.RunUntilIdle()
	if rootSum != members || rootCount != members {
		t.Fatalf("aggregate sum=%d count=%d want %d", rootSum, rootCount, members)
	}
}

func TestPartialParticipation(t *testing.T) {
	c := testCluster(70, 5)
	app := testApps(1, 5)[0]
	app.Participation = 0.5
	app.MaxRounds = 6
	app.TargetAccuracy = 0.999 // force all rounds
	id := c.DeployOnRandomNodes(app)
	prog := c.Train(id)[0]
	total := 0
	for _, pt := range prog.Points {
		total += pt.Participants
	}
	mean := float64(total) / float64(len(prog.Points))
	n := float64(len(app.Shards))
	if mean < n*0.2 || mean > n*0.8 {
		t.Fatalf("mean participants %.1f of %v not near 50%%", mean, n)
	}
}

func TestCompressedAppLearns(t *testing.T) {
	c := testCluster(60, 6)
	app := testApps(1, 6)[0]
	app.Comp = fl.QuantizeInt8{}
	id := c.DeployOnRandomNodes(app)
	prog := c.Train(id)[0]
	last := prog.Points[len(prog.Points)-1]
	if last.Accuracy <= prog.Points[0].Accuracy {
		t.Fatal("int8-compressed app did not learn")
	}
}

func TestNoisyUpdatesStillAggregate(t *testing.T) {
	c := testCluster(60, 7)
	app := testApps(1, 7)[0]
	app.MaxRounds = 4
	app.TargetAccuracy = 0.999
	id := NewAppID(app.Name, "cluster")
	spec := SpecFromWorkload(id, app)
	spec.NoiseSigma = 0.001
	c.apps[id] = &clusterApp{app: app, eval: app.Proto.Clone(), spec: spec, master: -1}
	c.Engines[0].CreateTree(spec)
	c.Net.RunUntilIdle()
	perm := c.rng.Perm(60)
	for i := range app.Shards {
		if err := c.Engines[perm[i]].Subscribe(id, app.Shards[i], false); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.RunUntilIdle()
	prog := c.Train(id)[0]
	if len(prog.Points) != 4 {
		t.Fatalf("rounds=%d want 4", len(prog.Points))
	}
	if prog.Points[3].Participants != len(app.Shards) {
		t.Fatalf("participants %d", prog.Points[3].Participants)
	}
}

func TestZoneRestrictedSubscription(t *testing.T) {
	zoneOf := func(i int) uint64 { return uint64(i % 4) }
	c := NewCluster(ClusterConfig{
		N:        40,
		Seed:     8,
		Ring:     ring.Config{B: 4},
		ZoneBits: 4,
		ZoneOf:   zoneOf,
	})
	app := testApps(1, 8)[0]
	id := NewZonalAppID(app.Name, "cluster", 2, 4)
	spec := SpecFromWorkload(id, app)
	spec.ZoneRestricted = true
	// In-zone node subscribes fine; out-of-zone refused.
	var inZone, outZone *Engine
	for _, e := range c.Engines {
		switch e.Self().ID.ZonePrefix(4) {
		case 2:
			if inZone == nil {
				inZone = e
			}
		default:
			if outZone == nil {
				outZone = e
			}
		}
	}
	if inZone == nil || outZone == nil {
		t.Skip("zone layout degenerate")
	}
	if err := inZone.Subscribe(id, app.Shards[0], true); err != nil {
		t.Fatalf("in-zone subscribe failed: %v", err)
	}
	if err := outZone.Subscribe(id, app.Shards[1], true); err == nil {
		t.Fatal("out-of-zone subscribe was not refused")
	}
}

func TestOnTimerReportsProgress(t *testing.T) {
	c := testCluster(50, 9)
	app := testApps(1, 9)[0]
	app.MaxRounds = 5
	app.TargetAccuracy = 0.999
	id := c.DeployOnRandomNodes(app)
	master := c.Master(id)
	var ticks []TimerInfo
	master.OnTimer(id, 200*time.Millisecond, func(info TimerInfo) {
		ticks = append(ticks, info)
	})
	c.Train(id)
	if len(ticks) == 0 {
		t.Fatal("timer never fired")
	}
	lastInfo := ticks[len(ticks)-1]
	if lastInfo.Round == 0 {
		t.Fatalf("timer saw no rounds: %+v", lastInfo)
	}
}

func TestTotoroBeatsCentralizedUnderConcurrency(t *testing.T) {
	// Qualitative Table 3 check at unit-test scale: with several concurrent
	// apps, Totoro's total completion beats the centralized baseline's.
	apps := func(seed int64) []*workload.App {
		as := workload.MakeApps(workload.Params{
			Task: workload.TaskSpeech, Apps: 6, ClientsPerApp: 10,
			SamplesPerClient: 40, Seed: seed,
		})
		for _, a := range as {
			a.MaxRounds = 8
			a.TargetAccuracy = 0.999
		}
		return as
	}
	c := testCluster(80, 11)
	var idsList []AppID
	for _, a := range apps(11) {
		idsList = append(idsList, c.DeployOnRandomNodes(a))
	}
	var totoroDone time.Duration
	for _, p := range c.Train(idsList...) {
		if p.Done > totoroDone {
			totoroDone = p.Done
		}
	}
	be := baseline.New(apps(11), baseline.Config{Profile: baseline.OpenFL(), ClientNodes: 80, Seed: 11})
	var centralDone time.Duration
	for _, p := range be.Run() {
		if p.Done > centralDone {
			centralDone = p.Done
		}
	}
	if totoroDone >= centralDone {
		t.Fatalf("totoro %v not faster than centralized %v for 6 concurrent apps", totoroDone, centralDone)
	}
}
