package baseline

import (
	"fmt"
	"testing"
	"time"

	"totoro/internal/transport"
	"totoro/internal/workload"
)

func smallApps(n int, seed int64) []*workload.App {
	apps := workload.MakeApps(workload.Params{
		Task:             workload.TaskSpeech,
		Apps:             n,
		ClientsPerApp:    8,
		SamplesPerClient: 40,
		Seed:             seed,
	})
	for _, a := range apps {
		a.MaxRounds = 12
		a.TargetAccuracy = 0.45
	}
	return apps
}

func TestSingleAppTrainsToTarget(t *testing.T) {
	apps := smallApps(1, 1)
	e := New(apps, Config{Profile: FedScale(), ClientNodes: 16, Seed: 1})
	prog := e.Run()
	if len(prog) != 1 {
		t.Fatalf("progress entries %d", len(prog))
	}
	p := prog[0]
	if len(p.Points) == 0 {
		t.Fatal("no accuracy points recorded")
	}
	last := p.Points[len(p.Points)-1]
	if last.Accuracy < 0.45 && last.Round < 12 {
		t.Fatalf("run stopped early: %+v", last)
	}
	if !p.Reached && last.Round != 12 {
		t.Fatalf("neither reached target nor exhausted rounds: %+v", last)
	}
	// Accuracy should improve over the run.
	if last.Accuracy <= p.Points[0].Accuracy {
		t.Fatalf("no learning: %.3f -> %.3f", p.Points[0].Accuracy, last.Accuracy)
	}
	if p.Done == 0 {
		t.Fatal("Done not set")
	}
}

func TestTimeMonotoneAndRoundsOrdered(t *testing.T) {
	apps := smallApps(2, 2)
	e := New(apps, Config{Profile: OpenFL(), ClientNodes: 16, Seed: 2})
	prog := e.Run()
	for _, p := range prog {
		for i := 1; i < len(p.Points); i++ {
			if p.Points[i].Time < p.Points[i-1].Time {
				t.Fatal("time not monotone")
			}
			if p.Points[i].Round != p.Points[i-1].Round+1 {
				t.Fatal("rounds not consecutive")
			}
		}
	}
}

func TestConcurrentAppsSlowEachOtherDown(t *testing.T) {
	// The centralized architecture's defining behaviour: total completion
	// time grows with the number of concurrently running applications.
	finish := func(n int) time.Duration {
		apps := smallApps(n, 3)
		e := New(apps, Config{Profile: OpenFL(), ClientNodes: 16, Seed: 3})
		prog := e.Run()
		var worst time.Duration
		for _, p := range prog {
			if p.Done > worst {
				worst = p.Done
			}
		}
		return worst
	}
	t1 := finish(1)
	t8 := finish(8)
	if t8 < time.Duration(float64(t1)*1.5) {
		t.Fatalf("8 concurrent apps (%v) not meaningfully slower than 1 (%v)", t8, t1)
	}
}

func TestServerIsTheTrafficHotspot(t *testing.T) {
	apps := smallApps(3, 4)
	e := New(apps, Config{Profile: FedScale(), ClientNodes: 16, Seed: 4})
	e.Run()
	bytes := func(addr transport.Addr) int64 {
		reg := e.Network().MetricsOf(addr)
		return reg.Counter(transport.CtrBytesIn).Value() + reg.Counter(transport.CtrBytesOut).Value()
	}
	var maxClient int64
	for i := 0; i < 16; i++ {
		maxClient = max(maxClient, bytes(transport.Addr(fmt.Sprintf("client%d", i))))
	}
	if server := bytes("server"); server < 3*maxClient {
		t.Fatalf("server traffic %d not dominant over max client %d", server, maxClient)
	}
}
