//go:build amd64

package totoro

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"totoro/internal/baseline"
	"totoro/internal/fl"
	"totoro/internal/ml"
	"totoro/internal/ring"
	"totoro/internal/workload"
)

// goldenTrajectories pins whole training runs bit for bit: an FNV-64a hash
// over every committed point (virtual time, round, accuracy bits,
// participants) and the final global parameters of each app. The hashes
// were recorded before update buffers were recycled through fl's free list
// and before the master's evaluation could borrow a pool worker, and must
// never be re-recorded to make such a change pass: a recycled buffer that
// is read again, or an evaluation that depends on who scored which sample,
// moves them. The chaos seeds are chaos_test.go's pick-list, whose dup
// phases deliver Upstreams twice.
var goldenTrajectories = map[string]uint64{
	"fleet-64-256-62": 0x255204c5aecba1cb,
	"chaos-229":       0x43f3b5361b58a841,
	"chaos-233":       0xc79ff8410031bc7a,
	"chaos-239":       0x59a12757ab5bac09,
	"chaos-241":       0xe77d1860ff25ba8c,
	"chaos-251":       0x4e2084233c5ae0b3,
	"session-int8":    0x7bec17a3be701b73,
	"baseline":        0x96683cce14267edf,
}

func TestTrajectoriesAreGolden(t *testing.T) {
	got := map[string]uint64{
		"fleet-64-256-62": bigModelFleetHash(t),
		"session-int8":    sessionHash(),
		"baseline":        baselineHash(),
	}
	for _, seed := range []int64{229, 233, 239, 241, 251} {
		got["chaos-"+strconv.FormatInt(seed, 10)], _ = chaosRun(t, seed)
	}
	for name, want := range goldenTrajectories {
		if got[name] != want {
			t.Errorf("%s: trajectory hash %#016x, recorded %#016x", name, got[name], want)
		}
	}
}

func hashU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashRun(h hash.Hash64, points []workload.AccuracyPoint, params []float64) {
	hashU64(h, uint64(len(points)))
	for _, p := range points {
		hashU64(h, uint64(p.Time))
		hashU64(h, uint64(p.Round))
		hashU64(h, math.Float64bits(p.Accuracy))
		hashU64(h, uint64(p.Participants))
	}
	hashU64(h, uint64(len(params)))
	for _, v := range params {
		hashU64(h, math.Float64bits(v))
	}
}

// bigModelFleetHash trains two apps of bigmodel-1k's 64-256-62 shape side
// by side on a fault-free durable fleet; the second ships int8-quantized
// updates, so its raw deltas are released as soon as they are compressed.
func bigModelFleetHash(t *testing.T) uint64 {
	c := NewCluster(ClusterConfig{
		N: 100, Seed: 1, Ring: ring.Config{B: 4}, Bandwidth: 2 << 20, ExactSizes: true, Durable: true,
	})
	apps := workload.MakeApps(workload.Params{
		Task: workload.TaskFEMNIST, Apps: 2, ClientsPerApp: 12, SamplesPerClient: 30, Seed: 1,
	})
	var ids []AppID
	for i, a := range apps {
		a.MaxRounds = 5
		a.TargetAccuracy = 2
		a.Proto = ml.NewMLP([]int{64, 256, 62}, rand.New(rand.NewSource(a.Seed)))
		if i == 1 {
			a.Comp = fl.QuantizeInt8{}
		}
		ids = append(ids, c.DeployOnRandomNodes(a))
	}
	progress := c.Train(ids...)
	h := fnv.New64a()
	for i, id := range ids {
		params, _ := c.Master(id).GlobalParams(id)
		if len(progress[i].Points) != 5 {
			t.Fatalf("app %d committed %d of 5 rounds", i, len(progress[i].Points))
		}
		hashRun(h, progress[i].Points, params)
	}
	return h.Sum64()
}

// chaosRun runs chaos_test.go's acceptance schedule on one fleet seed and
// returns the run's hash and the trained cluster.
func chaosRun(t *testing.T, seed int64) (uint64, *Cluster) {
	c, id, _, _ := startChaos(t, seed, chaosSpec, chaosRounds)
	prog := c.TrainUntil(c.Net.Now()+10*time.Minute, id)[0]
	if n := len(prog.Points); n == 0 || prog.Points[n-1].Round != chaosRounds {
		t.Fatalf("seed %d: training did not complete under faults: %+v", seed, prog.Points)
	}
	params, _ := c.Master(id).GlobalParams(id)
	h := fnv.New64a()
	hashRun(h, prog.Points, params)
	return h.Sum64(), c
}

// TestLatePartialLeavesTheRunAlone pins the seed on which a partial reaches
// a tree member after its round has left the member's window (pubsub's
// roundHorizon): fleet seed 7 under the nine-phase schedule, one of
// TestCheckMatchesFullScan's clean seeds. The member drops and counts it,
// and the run trains, bit for bit and without a violation, as it did when
// every member kept every round. The hash was recorded with the unbounded
// round list and must not be re-recorded.
func TestLatePartialLeavesTheRunAlone(t *testing.T) {
	const seed, want = 7, uint64(0xab8873b84e30bf94)
	got, c := chaosRun(t, seed)
	if v := c.Net.Violation(); v != nil {
		t.Errorf("seed %d: violation %v, want none", seed, v)
	}
	if got != want {
		t.Errorf("seed %d: trajectory hash %#016x, recorded %#016x", seed, got, want)
	}
	if n := c.Net.MergedSnapshot().Counters["pubsub.pruned_partials"]; n == 0 {
		t.Errorf("seed %d: no partial reached a round past the window; this seed no longer exercises the drop", seed)
	}
}

// sessionHash runs the network-free Session with a compressor that returns
// a fresh reconstruction, over a partition that leaves some clients empty.
func sessionHash() uint64 {
	rng := rand.New(rand.NewSource(5))
	full := ml.FEMNISTLike(600, rng)
	train, test := full.Split(0.25, rng)
	clients := ml.DirichletPartition(train, 16, 0.3, rng)
	proto := ml.NewMLP([]int{64, 48, 62}, rng)
	s := fl.NewSession(proto, clients, test, fl.ClientConfig{LR: 0.1}, fl.QuantizeInt8{})
	h := fnv.New64a()
	for r := 0; r < 4; r++ {
		rep := s.Round(10, rng)
		hashU64(h, math.Float64bits(rep.Accuracy))
		hashU64(h, uint64(rep.UpdateSize))
	}
	hashRun(h, nil, s.Global)
	return h.Sum64()
}

// baselineHash runs the centralized baseline on one app.
func baselineHash() uint64 {
	apps := testApps(1, 62)
	apps[0].MaxRounds = 4
	apps[0].TargetAccuracy = 0.999
	e := baseline.New(apps, baseline.Config{Profile: baseline.OpenFL(), ClientNodes: 20, Seed: 62})
	h := fnv.New64a()
	hashRun(h, e.Run()[0].Points, nil)
	return h.Sum64()
}
