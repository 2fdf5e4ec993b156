package totoro

import (
	"runtime"
	"testing"
	"time"

	"totoro/internal/ring"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

func TestClusterProgressUnknownApp(t *testing.T) {
	c := testCluster(20, 42)
	if p := c.Progress(NewAppID("ghost", "x")); p != nil {
		t.Fatalf("progress for unknown app: %+v", p)
	}
	if m := c.Master(NewAppID("ghost", "x")); m != nil {
		t.Fatal("master for unknown app")
	}
}

// TestClusterProgressIsReadOnly: polling Cluster.Progress mid-run (a
// progress bar, a test waiting for a round) used to write Done into the
// live master's Progress, which ended StepUntilDone/TrainUntil early and
// rode the next journaled and replicated image as a bogus DoneAt.
// StepUntilDone returns once the network runs out of events, even though
// the clock never reached the deadline and the app never finished: Run does
// not advance an empty queue's clock, so it used to loop forever.
func TestStepUntilDoneReturnsWhenTheQueueDrains(t *testing.T) {
	c := NewCluster(ClusterConfig{N: 8, Seed: 1})
	done := make(chan struct{})
	go func() {
		c.StepUntilDone(c.Net.Now()+time.Second, NewAppID("never-deployed", "x"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("StepUntilDone still loops after 10 s of wall time on an idle network")
	}
}

func TestClusterProgressIsReadOnly(t *testing.T) {
	c := testCluster(30, 47)
	app := testApps(1, 47)[0]
	app.MaxRounds = 8
	app.TargetAccuracy = 0.999 // unreachable: all 8 rounds run
	id := c.DeployOnRandomNodes(app)
	c.Engines[0].StartTraining(id)
	for len(c.Progress(id).Points) < 2 {
		if !c.Net.Step() {
			t.Fatal("network went idle before two rounds committed")
		}
	}
	if c.allDone([]AppID{id}) {
		t.Fatalf("done after %d of 8 rounds", len(c.Progress(id).Points))
	}
	if p := c.Progress(id); p.Done != c.Net.Now() {
		t.Fatalf("running app reports Done=%v, want the current time %v", p.Done, c.Net.Now())
	}
	if last := c.Train(id)[0].Points; len(last) != 8 {
		t.Fatalf("training ended after %d of 8 rounds", len(last))
	}
}

func TestMasterCachedAcrossLookups(t *testing.T) {
	c := testCluster(50, 43)
	app := testApps(1, 43)[0]
	app.MaxRounds = 0
	id := c.DeployOnRandomNodes(app)
	m1 := c.Master(id)
	m2 := c.Master(id)
	if m1 == nil || m1 != m2 {
		t.Fatal("master lookup unstable")
	}
}

func TestEngineGlobalParamsCopy(t *testing.T) {
	c := testCluster(50, 44)
	app := testApps(1, 44)[0]
	app.MaxRounds = 2
	app.TargetAccuracy = 0.999
	id := c.DeployOnRandomNodes(app)
	c.Train(id)
	m := c.Master(id)
	p1, ok := m.GlobalParams(id)
	if !ok || len(p1) == 0 {
		t.Fatal("no global params")
	}
	p1[0] += 1000
	p2, _ := m.GlobalParams(id)
	if p2[0] == p1[0] {
		t.Fatal("GlobalParams returned shared storage")
	}
	if _, ok := m.GlobalParams(NewAppID("ghost", "x")); ok {
		t.Fatal("params for unknown app")
	}
	if len(m.roles) != 1 || !m.IsMaster(id) {
		t.Fatalf("%d roles, want only the mastership of %v", len(m.roles), id)
	}
}

func TestDuplicateCreateTreeIsIdempotent(t *testing.T) {
	c := testCluster(40, 45)
	app := testApps(1, 45)[0]
	app.MaxRounds = 0
	id := NewAppID(app.Name, "cluster")
	spec := SpecFromWorkload(id, app)
	c.apps[id] = &clusterApp{app: app, eval: app.Proto.Clone(), spec: spec, master: -1}
	c.Engines[0].CreateTree(spec)
	c.Engines[1].CreateTree(spec) // second creator, same app
	c.Net.RunUntilIdle()
	masters := 0
	for _, e := range c.Engines {
		if e.IsMaster(id) {
			masters++
		}
	}
	if masters != 1 {
		t.Fatalf("masters=%d after duplicate CreateTree", masters)
	}
}

func TestStartTrainingTwiceRunsOnce(t *testing.T) {
	c := testCluster(50, 46)
	app := testApps(1, 46)[0]
	app.MaxRounds = 3
	app.TargetAccuracy = 0.999
	id := c.DeployOnRandomNodes(app)
	c.Engines[0].StartTraining(id)
	c.Engines[1].StartTraining(id)
	c.Net.RunUntilIdle()
	p := c.Progress(id)
	if len(p.Points) != 3 {
		t.Fatalf("rounds=%d want 3 (double start must not double rounds)", len(p.Points))
	}
	for i, pt := range p.Points {
		if pt.Round != i+1 {
			t.Fatalf("round sequence corrupted: %+v", p.Points)
		}
	}
}

func TestZonedClusterBuildsAllZones(t *testing.T) {
	c := NewCluster(ClusterConfig{
		N:        32,
		Seed:     47,
		Ring:     ring.Config{B: 4},
		ZoneBits: 4,
		ZoneOf:   func(i int) uint64 { return uint64(i % 4) },
	})
	counts := map[uint64]int{}
	for _, e := range c.Engines {
		counts[e.Self().ID.ZonePrefix(4)]++
	}
	for z := uint64(0); z < 4; z++ {
		if counts[z] != 8 {
			t.Fatalf("zone %d has %d nodes want 8", z, counts[z])
		}
	}
	_ = workload.DefaultCostModel()
}

// TestPerNodeFootprint keeps the simulator's idle cost per node from rotting:
// what a 4000-node fleet holds after construction — routing rows and leaf
// sets, the engine, its registry, the simulator's node — is under 5 KB per
// node (it was 27.7 KB when every node carried 32 routing rows, a seeded
// rng and fourteen empty maps). DESIGN.md §4.8 has the budget by layer.
func TestPerNodeFootprint(t *testing.T) {
	const n = 4000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCluster(ClusterConfig{N: n, Seed: 1, Ring: ring.Config{B: 4}, Bandwidth: 2 << 20, ExactSizes: true})
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (after.HeapAlloc - before.HeapAlloc) / n
	t.Logf("%d bytes of live heap per node", per)
	if per > 10<<10 {
		t.Fatalf("a simulated node holds %d bytes after construction, want <= %d", per, 10<<10)
	}
	runtime.KeepAlive(c)
}

// TestObserverSeesEveryDelivery: ClusterConfig.Observer is called once per
// delivered message of a short training run, with the size the receiver is
// charged, so its tallies equal the fleet's net.delivered and net.bytes_in.
func TestObserverSeesEveryDelivery(t *testing.T) {
	var msgs, bytes int64
	c := NewCluster(ClusterConfig{
		N:         30,
		Seed:      48,
		Ring:      ring.Config{B: 4},
		Bandwidth: 2 << 20,
		Observer: func(_, _ transport.Addr, size int) {
			msgs++
			bytes += int64(size)
		},
	})
	app := testApps(1, 48)[0]
	app.MaxRounds = 3
	if p := c.Train(c.DeployOnRandomNodes(app))[0]; len(p.Points) != 3 {
		t.Fatalf("trained %d rounds, want 3", len(p.Points))
	}
	snap := c.Net.MergedSnapshot()
	if want := snap.Counters["net.delivered"]; msgs != want {
		t.Errorf("observer saw %d messages, net.delivered is %d", msgs, want)
	}
	if want := snap.Counters[transport.CtrBytesIn]; bytes != want {
		t.Errorf("observer saw %d bytes, %s is %d", bytes, transport.CtrBytesIn, want)
	}
}
