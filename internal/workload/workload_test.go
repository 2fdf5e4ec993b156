package workload

import (
	"testing"
)

func TestMakeAppsShapes(t *testing.T) {
	apps := MakeApps(Params{Task: TaskSpeech, Apps: 3, ClientsPerApp: 10, SamplesPerClient: 40, Seed: 1})
	if len(apps) != 3 {
		t.Fatalf("apps=%d", len(apps))
	}
	for i, a := range apps {
		if len(a.Shards) != 10 {
			t.Fatalf("app %d shards=%d", i, len(a.Shards))
		}
		total := 0
		for _, s := range a.Shards {
			total += s.Len()
		}
		if total == 0 || a.Test.Len() == 0 {
			t.Fatalf("app %d has no data", i)
		}
		if a.Proto.Sizes[len(a.Proto.Sizes)-1] != 35 {
			t.Fatalf("speech classes=%d", a.Proto.Sizes[len(a.Proto.Sizes)-1])
		}
		if a.TargetAccuracy != 0.53 {
			t.Fatalf("speech target=%v", a.TargetAccuracy)
		}
	}
	fem := MakeApps(Params{Task: TaskFEMNIST, Apps: 1, Seed: 2})[0]
	if fem.Proto.Sizes[len(fem.Proto.Sizes)-1] != 62 || fem.TargetAccuracy != 0.755 {
		t.Fatalf("femnist spec wrong: %v %v", fem.Proto.Sizes, fem.TargetAccuracy)
	}
}

func TestAppsAreIndependent(t *testing.T) {
	apps := MakeApps(Params{Task: TaskSpeech, Apps: 2, ClientsPerApp: 4, SamplesPerClient: 20, Seed: 3})
	p0, p1 := apps[0].Proto.Params(), apps[1].Proto.Params()
	same := true
	for i := range p0 {
		if p0[i] != p1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two apps share identical initial parameters")
	}
}

func TestTrainTimeScaling(t *testing.T) {
	c := DefaultCostModel()
	app := MakeApps(Params{Task: TaskSpeech, Apps: 1, ClientsPerApp: 4, SamplesPerClient: 20, Seed: 4})[0]
	base := c.TrainTime(app, 100, 1)
	if base <= 0 {
		t.Fatal("zero train time")
	}
	if got := c.TrainTime(app, 200, 1); got != 2*base {
		t.Fatalf("not linear in samples: %v vs %v", got, base)
	}
	if got := c.TrainTime(app, 100, 2); got != base/2 {
		t.Fatalf("not inverse in speed: %v vs %v", got, base)
	}
	if got := c.TrainTime(app, 0, 1); got != 0 {
		t.Fatalf("empty shard costs time: %v", got)
	}
	// Raw form agrees with the app form.
	if got := c.Time(app.Cfg.LocalEpochs, 100, app.Proto.NumParams(), 1); got != base {
		t.Fatalf("Time != TrainTime: %v vs %v", got, base)
	}
}
