//go:build amd64

package totoro

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"totoro/internal/ml"
	"totoro/internal/ring"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

// goldenFleet pins a fault-free 2 000-node fleet training four small apps at
// once: the shape of the benchmark's fleet-50k, scaled down. Its windows are
// thick enough that the event loop runs them on every core (DESIGN.md §4.8),
// so run it at -cpu 1,2,4: the hash was recorded with the single-threaded
// loop and must never be re-recorded.
const goldenFleet uint64 = 0xdd705002f7c9c0bd

func TestFleetRunIsGolden(t *testing.T) {
	c := NewCluster(ClusterConfig{N: 2000, Seed: 1, Ring: ring.Config{B: 4}, Bandwidth: 2 << 20, ExactSizes: true})
	apps := workload.MakeApps(workload.Params{
		Task: workload.TaskFEMNIST, Apps: 4, ClientsPerApp: 120, SamplesPerClient: 8, Seed: 1,
	})
	placer := rand.New(rand.NewSource(1))
	var ids []AppID
	for _, a := range apps {
		a.MaxRounds = 6
		a.TargetAccuracy = 2
		a.Proto = ml.NewMLP([]int{64, 4, 62}, rand.New(rand.NewSource(a.Seed)))
		workers := placer.Perm(len(c.Engines))[:len(a.Shards)]
		ids = append(ids, c.Deploy(a, workers[0], workers))
	}
	progress := c.Train(ids...)
	h := fnv.New64a()
	total := c.Net.MergedSnapshot()
	hashU64(h, uint64(total.Counters[transport.CtrMsgsOut]))
	hashU64(h, uint64(total.Counters[transport.CtrBytesOut]))
	hashU64(h, uint64(c.Net.Now()))
	for i, id := range ids {
		if len(progress[i].Points) != 6 {
			t.Fatalf("app %d committed %d of 6 rounds", i, len(progress[i].Points))
		}
		params, _ := c.Master(id).GlobalParams(id)
		hashRun(h, progress[i].Points, params)
	}
	if got := h.Sum64(); got != goldenFleet {
		t.Errorf("fleet hash %#016x, recorded %#016x", got, goldenFleet)
	}
}
