// Package workload defines the FL application workloads and the edge
// compute/communication cost model shared by the decentralized Totoro
// engine and the centralized baselines, so that their time-to-accuracy
// comparison (Table 3, Figs 8–9) differs only in system architecture.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"totoro/internal/fl"
	"totoro/internal/ml"
)

// App is one federated-learning application: its model architecture,
// per-client shards, evaluation set, policies, and stopping criteria.
type App struct {
	Name   string
	Proto  *ml.MLP
	Shards []*ml.Dataset
	Test   *ml.Dataset
	Cfg    fl.ClientConfig
	Comp   fl.Compressor
	// Participation is the fraction of subscribed workers that train in a
	// given round (1 = full participation).
	Participation float64
	// TargetAccuracy ends training early when reached.
	TargetAccuracy float64
	// MaxRounds bounds training length.
	MaxRounds int
	// MinParticipants is the per-round commit quorum (see
	// AppSpec.MinParticipants): a deadline-flushed round below it is held
	// open for late updates before committing. Zero commits any flush.
	MinParticipants int
	// Seed roots the app's deterministic per-client training randomness:
	// every client derives its round rng from (Seed, round, client), so
	// training order and parallelism cannot perturb results.
	Seed int64
}

// Task identifies the two evaluation workloads of §7.4.
type Task string

// The two tasks evaluated in the paper, §7.4.
const (
	// TaskSpeech mirrors speech recognition on Google Speech (35 classes,
	// ResNet-34, target 53.0%).
	TaskSpeech Task = "speech"
	// TaskFEMNIST mirrors image classification on FEMNIST (62 classes,
	// ShuffleNet V2, target 75.5%).
	TaskFEMNIST Task = "femnist"
)

// Params configures workload generation.
type Params struct {
	Task             Task
	Apps             int
	ClientsPerApp    int
	SamplesPerClient int
	Seed             int64
}

// dirichletAlpha is the label skew of every app's client shards (1 is
// moderately non-IID).
const dirichletAlpha = 1.0

func (p Params) withDefaults() Params {
	if p.ClientsPerApp == 0 {
		p.ClientsPerApp = 30
	}
	if p.SamplesPerClient == 0 {
		p.SamplesPerClient = 60
	}
	return p
}

// MakeApps builds the application set for one experiment. Each app gets an
// independent dataset draw and model initialization, mirroring "different
// FL applications train various models on the same platform".
func MakeApps(p Params) []*App {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]*App, p.Apps)
	for i := range out {
		out[i] = makeApp(p, i, rng)
	}
	return out
}

func makeApp(p Params, idx int, rng *rand.Rand) *App {
	total := p.ClientsPerApp * p.SamplesPerClient
	var full *ml.Dataset
	var sizes []int
	var target float64
	var name string
	switch p.Task {
	case TaskSpeech:
		full = ml.SpeechLike(total+total/4, rng)
		sizes = []int{40, 48, 35}
		target = 0.53
		name = fmt.Sprintf("speech-%d", idx)
	case TaskFEMNIST:
		full = ml.FEMNISTLike(total+total/4, rng)
		sizes = []int{64, 48, 62}
		target = 0.755
		name = fmt.Sprintf("femnist-%d", idx)
	default:
		panic(fmt.Sprintf("workload: unknown task %q", p.Task))
	}
	train, test := full.Split(0.2, rng)
	shards := ml.DirichletPartition(train, p.ClientsPerApp, dirichletAlpha, rng)
	return &App{
		Name:           name,
		Proto:          ml.NewMLP(sizes, rng),
		Shards:         shards,
		Test:           test,
		Cfg:            fl.ClientConfig{LocalEpochs: 1, BatchSize: 20, LR: 0.1, Momentum: 0.5},
		Comp:           fl.NoCompression{},
		Participation:  1.0,
		TargetAccuracy: target,
		MaxRounds:      60,
		Seed:           p.Seed*1_000_003 + int64(idx),
	}
}

// --- edge cost model ---

// CostModel captures the virtual-time cost of computation at edge nodes.
// Communication cost needs no model here: it emerges from simnet bandwidth
// and latency applied to real message sizes.
type CostModel struct {
	// FLOPS is the effective per-node throughput in parameter-sample
	// operations per second.
	FLOPS float64
	// CoordPerClient is the centralized coordinator's FCFS service time
	// per selected client per round (task assignment, client assignment,
	// tracking — §2.1). Zero for the decentralized engine, whose
	// coordination work is spread over the tree.
	CoordPerClient time.Duration
}

// DefaultCostModel is calibrated so that one local epoch over ~60 samples
// of the Table 3 models costs on the order of 100 ms of virtual time —
// a t2.medium-class edge node.
func DefaultCostModel() CostModel {
	return CostModel{FLOPS: 4e6}
}

// TrainTime is the virtual time one client spends on local training:
// epochs × samples × params / FLOPS, scaled by the node's speed factor
// (1 = nominal; heterogeneous deployments draw per-node factors).
func (c CostModel) TrainTime(app *App, samples int, speed float64) time.Duration {
	epochs := app.Cfg.LocalEpochs
	return c.Time(epochs, samples, app.Proto.NumParams(), speed)
}

// Time is TrainTime for callers that know the raw work dimensions rather
// than holding a full App (e.g. workers that received only an AppSpec).
func (c CostModel) Time(epochs, samples, params int, speed float64) time.Duration {
	if samples == 0 {
		return 0
	}
	if epochs == 0 {
		epochs = 1
	}
	if speed <= 0 {
		speed = 1
	}
	work := float64(epochs) * float64(samples) * float64(params)
	return time.Duration(work / (c.FLOPS * speed) * float64(time.Second))
}

// ComputeQueue serializes compute tasks on one physical node: a node
// training for several applications at once runs them one after another.
type ComputeQueue struct {
	busyUntil time.Duration
}

// Start returns when a task of the given duration submitted at now will
// finish, and advances the queue.
func (q *ComputeQueue) Start(now, dur time.Duration) time.Duration {
	start := now
	if q.busyUntil > start {
		start = q.busyUntil
	}
	q.busyUntil = start + dur
	return q.busyUntil
}

// AccuracyPoint is one (virtual time, accuracy) sample of a training run.
type AccuracyPoint struct {
	Time     time.Duration
	Round    int
	Accuracy float64
	// Participants is how many client updates the round aggregated.
	Participants int
}

// Progress is the recorded trajectory of one app under one engine.
type Progress struct {
	App    string
	Points []AccuracyPoint
	// Done is when the app hit its target (or exhausted MaxRounds).
	Done time.Duration
	// Reached reports whether the target accuracy was met.
	Reached bool
}
