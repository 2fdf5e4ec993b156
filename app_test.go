package totoro

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"totoro/internal/fl"
	"totoro/internal/ids"
	"totoro/internal/transport"
	"totoro/internal/wire/codec"
	"totoro/internal/workload"
)

func TestNewAppIDDeterministicDistinct(t *testing.T) {
	a := NewAppID("activity", "owner1")
	if a != NewAppID("activity", "owner1") {
		t.Fatal("AppID not deterministic")
	}
	if a == NewAppID("activity", "owner2") || a == NewAppID("fitness", "owner1") {
		t.Fatal("AppID collision")
	}
}

func TestNewZonalAppIDZone(t *testing.T) {
	for zone := uint64(0); zone < 8; zone++ {
		id := NewZonalAppID("app", "o", zone, 3)
		if id.ZonePrefix(3) != zone {
			t.Fatalf("zonal id in zone %d want %d", id.ZonePrefix(3), zone)
		}
	}
}

func TestSpecFromWorkloadMapsPolicies(t *testing.T) {
	app := workload.MakeApps(workload.Params{
		Task: workload.TaskSpeech, Apps: 1, ClientsPerApp: 4, SamplesPerClient: 10, Seed: 1,
	})[0]
	app.Comp = fl.TopK{K: 33}
	spec := SpecFromWorkload(NewAppID(app.Name, "x"), app)
	if spec.Compressor != "topk" || spec.TopK != 33 {
		t.Fatalf("topk not mapped: %+v", spec)
	}
	if len(spec.InitParams) != app.Proto.NumParams() {
		t.Fatal("init params missing")
	}
	app.Comp = fl.QuantizeInt8{}
	if s := SpecFromWorkload(spec.ID, app); s.Compressor != "int8" {
		t.Fatal("int8 not mapped")
	}
	app.Comp = fl.NoCompression{}
	if s := SpecFromWorkload(spec.ID, app); s.Compressor != "" {
		t.Fatal("none not mapped")
	}
}

func TestCompressorResolution(t *testing.T) {
	if _, b := (AppSpec{Compressor: "int8"}).compressor().Apply(make([]float64, 10)); b >= 80 {
		t.Fatal("int8 resolution broken")
	}
	if _, b := (AppSpec{}).compressor().Apply(make([]float64, 10)); b != 80 {
		t.Fatal("default should be dense")
	}
	// topk without budget gets a default.
	c := (AppSpec{Compressor: "topk"}).compressor()
	if tk, ok := c.(fl.TopK); !ok || tk.K != 64 {
		t.Fatalf("topk default: %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown compressor accepted")
		}
	}()
	(AppSpec{Compressor: "zstd"}).compressor()
}

func TestParticipatesFractionAndDeterminism(t *testing.T) {
	app := NewAppID("p", "o")
	hits := 0
	const nodes = 2000
	for i := 0; i < nodes; i++ {
		addr := transport.Addr(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i)))
		got := participates(app, addr, 3, 0.5)
		if got != participates(app, addr, 3, 0.5) {
			t.Fatal("participation not deterministic")
		}
		if got {
			hits++
		}
	}
	frac := float64(hits) / nodes
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("participation fraction %.3f not near 0.5", frac)
	}
	if participates(app, "x", 1, 0) {
		t.Fatal("0 fraction selected someone")
	}
	if !participates(app, "x", 1, 1) {
		t.Fatal("full participation skipped someone")
	}
}

func TestParticipationVariesByRound(t *testing.T) {
	app := NewAppID("q", "o")
	same := 0
	for r := 1; r <= 32; r++ {
		if participates(app, "node-1", r, 0.5) == participates(app, "node-1", r+1, 0.5) {
			same++
		}
	}
	if same == 32 {
		t.Fatal("selection never changes across rounds")
	}
}

func TestGaussianNoiseStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	delta := make([]float64, 20000)
	noisy := GaussianNoise(delta, 0.5, rng)
	mean, varSum := 0.0, 0.0
	for _, v := range noisy {
		mean += v
	}
	mean /= float64(len(noisy))
	for _, v := range noisy {
		varSum += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(varSum / float64(len(noisy)))
	if math.Abs(mean) > 0.02 || math.Abs(sd-0.5) > 0.02 {
		t.Fatalf("noise mean %.4f sd %.4f want 0 / 0.5", mean, sd)
	}
	// The input must not be mutated.
	for _, v := range delta {
		if v != 0 {
			t.Fatal("GaussianNoise mutated its input")
		}
	}
}

func TestMergeUpdatesAssociativeOnPayloads(t *testing.T) {
	u := func(v float64, samples int) updateAgg {
		return updateAgg{Acc: fl.NewAccum(fl.Update{Delta: []float64{v}, Samples: samples}), Bytes: 32}
	}
	// mergeUpdates owns its left operand (the combiner contract), so each
	// association tree gets freshly built operands.
	left := mergeUpdates(mergeUpdates(u(1, 10), u(2, 20)), u(3, 30)).(updateAgg)
	right := mergeUpdates(u(1, 10), mergeUpdates(u(2, 20), u(3, 30))).(updateAgg)
	if math.Abs(left.Acc.WeightedSum[0]-right.Acc.WeightedSum[0]) > 1e-12 {
		t.Fatal("mergeUpdates not associative")
	}
	if left.Acc.Samples != 60 || left.Acc.Count != 3 {
		t.Fatalf("counters: %+v", left.Acc)
	}
	// Wire size after merging is the dense aggregate.
	if left.Bytes != 24+8*1 {
		t.Fatalf("merged bytes %d", left.Bytes)
	}
}

func TestAppSpecWireSizeTracksModel(t *testing.T) {
	small := AppSpec{Name: "a", Sizes: []int{4, 2}, InitParams: make([]float64, 10)}
	big := AppSpec{Name: "a", Sizes: []int{4, 2}, InitParams: make([]float64, 10000)}
	if small.WireSize() >= big.WireSize() {
		t.Fatal("wire size ignores parameters")
	}
}

// TestSemiSyncRoundDeadline runs an app whose spec sets RoundDeadline while
// one worker is dead: rounds keep flowing at the deadline pace instead of
// stalling.
func TestSemiSyncRoundDeadline(t *testing.T) {
	c := testCluster(60, 21)
	app := testApps(1, 21)[0]
	app.MaxRounds = 5
	app.TargetAccuracy = 0.999
	id := NewAppID(app.Name, "cluster")
	spec := SpecFromWorkload(id, app)
	spec.RoundDeadline = 500 * time.Millisecond
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
	// Kill one worker before training starts: a strict-sync app would
	// stall on round 1 forever.
	c.Net.Fail(c.Engines[perm[0]].Self().Addr)
	c.Engines[1].StartTraining(id)
	c.Net.RunUntilIdle()
	prog := c.Progress(id)
	if len(prog.Points) != 5 {
		t.Fatalf("semi-sync app completed %d rounds want 5", len(prog.Points))
	}
	for _, pt := range prog.Points {
		if pt.Participants >= len(app.Shards) {
			t.Fatalf("round %d claims full participation despite a dead worker", pt.Round)
		}
	}
	_ = ids.ID{}
}

// TestMalformedPartialsAreDropped hands a parent the two pairs of partials
// that decode cleanly but cannot merge — two updateAggs without an
// aggregate, on which mergeUpdates dereferenced nil, and two whose model
// sizes differ, on which fl.Accum.Add panics by design — and then hands
// the root one partial of the wrong model size, which its commit could not
// apply. Each partial comes off the wire; the parent drops the malformed
// side and goes on with the other, the root drops the partial, and every
// drop is counted.
func TestMalformedPartialsAreDropped(t *testing.T) {
	RegisterWire()
	wire := func(v updateAgg) any {
		enc := codec.NewEnc()
		defer enc.Free()
		if err := codec.EncodeFrame(enc, "child", v); err != nil {
			t.Fatal(err)
		}
		_, msg, err := codec.DecodeFrame(slices.Clone(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	agg := func(n int) updateAgg {
		return updateAgg{Bytes: 24 + 8*n, Acc: fl.NewAccum(fl.Update{Delta: make([]float64, n), Samples: 1})}
	}
	c := testCluster(1, 1)
	app := testApps(1, 1)[0]
	id := c.Deploy(app, 0, []int{0})
	root := c.Engines[0]
	if got := root.combine(id, wire(updateAgg{}), wire(updateAgg{})); got != nil {
		t.Fatalf("two empty partials combine to %#v, want nothing", got)
	}
	got, ok := root.combine(id, wire(agg(3)), wire(agg(2))).(updateAgg)
	if !ok || got.Acc == nil || len(got.Acc.WeightedSum) != 3 || got.Acc.Count != 1 {
		t.Fatalf("partials of 3 and 2 parameters combine to %#v, want the first", got)
	}
	root.onAggregate(id, 0, wire(agg(3)), 1)
	if m := root.master(id); len(m.Points) != 0 {
		t.Fatalf("the root committed a partial of 3 parameters to a model of %d", len(m.Global))
	}
	if n := root.Metrics().Counter("fl.rejected_partials").Value(); n != 4 {
		t.Fatalf("fl.rejected_partials = %d, want 4", n)
	}
}
