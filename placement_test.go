package totoro

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"totoro/internal/ml"
	"totoro/internal/ring"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

// TestPlacementNeverReachesResults builds a fleet just above the huge-page
// reservation's threshold twice, with NewCluster's reservation and without
// it: where the fleet's objects sit in memory must not move a trajectory,
// a parameter bit or a network total.
func TestPlacementNeverReachesResults(t *testing.T) {
	const nodes = 3000
	if nodes*nodeHeapBytes < 64<<20 {
		t.Fatalf("%d nodes estimate %d bytes, below the reservation's threshold", nodes, nodes*nodeHeapBytes)
	}
	run := func() (hash uint64, msgs, bytes int64) {
		c := NewCluster(ClusterConfig{N: nodes, Seed: 3, Ring: ring.Config{B: 4}, Bandwidth: 2 << 20, ExactSizes: true})
		apps := workload.MakeApps(workload.Params{
			Task: workload.TaskFEMNIST, Apps: 2, ClientsPerApp: 60, SamplesPerClient: 8, Seed: 3,
		})
		placer := rand.New(rand.NewSource(3))
		var ids []AppID
		for _, a := range apps {
			a.MaxRounds = 3
			a.TargetAccuracy = 2
			a.Proto = ml.NewMLP([]int{64, 4, 62}, rand.New(rand.NewSource(a.Seed)))
			workers := placer.Perm(nodes)[:len(a.Shards)]
			ids = append(ids, c.Deploy(a, workers[0], workers))
		}
		progress := c.Train(ids...)
		h := fnv.New64a()
		put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		put(uint64(c.Net.Now()))
		for i, id := range ids {
			if len(progress[i].Points) != 3 {
				t.Fatalf("app %d committed %d of 3 rounds", i, len(progress[i].Points))
			}
			for _, p := range progress[i].Points {
				put(uint64(p.Time))
				put(uint64(p.Round))
				put(math.Float64bits(p.Accuracy))
				put(uint64(p.Participants))
			}
			params, _ := c.Master(id).GlobalParams(id)
			for _, v := range params {
				put(math.Float64bits(v))
			}
		}
		total := c.Net.MergedSnapshot()
		return h.Sum64(), total.Counters[transport.CtrMsgsOut], total.Counters[transport.CtrBytesOut]
	}

	onHash, onMsgs, onBytes := run()
	reserve := reserveHeap
	reserveHeap = func(int64) {}
	defer func() { reserveHeap = reserve }()
	offHash, offMsgs, offBytes := run()
	if onHash != offHash || onMsgs != offMsgs || onBytes != offBytes {
		t.Errorf("with the reservation: hash %#016x, %d msgs, %d bytes; without: %#016x, %d msgs, %d bytes",
			onHash, onMsgs, onBytes, offHash, offMsgs, offBytes)
	}
}
