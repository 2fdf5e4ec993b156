package main

import (
	"math"
	"sort"
)

// This file is the benchmark's metric catalogue: every name the program
// prints, with unit, direction and what it measures. BENCHMARK.json at the
// repository root lists the same names (smoke_test.go holds the two
// together); README.md renders the same tables for readers.

// Clock labels: a simulator has two. Host time is what the engine costs to
// run on this machine and varies run to run; virtual time is what the
// modelled deployment would take and repeats exactly for a seed.
const (
	host    = "host"
	virtual = "virtual"
)

type e2eMetric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric may get
	// worse before a change counts as a regression (BENCHMARK.json "bound"):
	// three times the worst spread over ten seeds seen on the reference box
	// (README.md "Reference numbers"), at most 0.25.
	Bound float64
	Clock string
	Doc   string
}

// endToEnd is reported by every workload, in this order.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, host, "wall seconds for NewCluster + MakeApps + every Deploy (and arming chaos)"},
	{"rounds_per_s", "1/s", "higher", 0.25, host, "committed FL rounds (all apps) per wall second of the train phase"},
	{"train_cpu_s", "s", "lower", 0.25, host, "process user+sys CPU seconds (getrusage) over the train phase"},
	{"peak_rss_mb", "MB", "lower", 0.20, host, "the run's peak resident set (child ru_maxrss at exit)"},
	{"allocs_per_round", "count", "lower", 0.10, host, "heap allocations over the train phase per committed round"},
	{"bytes_per_round", "B", "lower", 0.05, virtual, "simulated net.bytes_out over the train phase per committed round (exact v2 frame sizes)"},
	{"virtual_s_per_round", "s", "lower", 0.20, virtual, "virtual seconds from training start to an app's last commit, per round, mean over apps"},
	{"final_accuracy", "ratio", "higher", 0.25, virtual, "mean final test accuracy over apps"},
}

// Sources of per-layer metrics.
const (
	srcTrace = "trace" // spans and phase timers of the traced run
	srcCount = "count" // obs counters, delta over the train phase
	srcProbe = "probe" // timed loops over one layer's public functions
)

type layerMetric struct {
	Name, Unit, Better, Source string
	// Moves names the end-to-end metric and workload this layer metric is
	// expected to move — written down before measuring (README "How the
	// metrics interact").
	Moves string
}

const (
	movesConstruct = "setup_s, peak_rss_mb on fleet-50k; via GC scan cost rounds_per_s on fleet-50k; nothing on bigmodel-1k"
	movesLoop      = "rounds_per_s, train_cpu_s, allocs_per_round on forest-10k and chaos-60; nothing on bigmodel-1k"
	movesPubsub    = "rounds_per_s on forest-10k and fleet-50k; tree-shape changes also virtual_s_per_round there"
	movesRing      = "rounds_per_s on chaos-60 (probes, hop acks, keep-alives); setup_s via JOIN routing in Deploy; little on forest-10k"
	movesML        = "rounds_per_s, train_cpu_s on bigmodel-1k; at most a few percent on forest-10k"
	movesCodec     = "rounds_per_s, allocs_per_round, peak_rss_mb on bigmodel-1k; an encoding change moves bytes_per_round and, on bigmodel-1k, virtual_s_per_round"
	movesStore     = "rounds_per_s on chaos-60 and bigmodel-1k; zero on fleet-50k and forest-10k (not durable)"
	movesEngine    = "rounds_per_s on chaos-60 (master-state replication, probes); failover is not exercised: engine.promotions reads 0 on all but one seed in 500"
	movesTraffic   = "bytes_per_round, virtual_s_per_round on every workload; rounds_per_s with the message count"
	movesFL        = "final_accuracy, virtual_s_per_round on chaos-60 (deadline flushes commit short rounds; holds and retries would delay them but read 0 without partitions); constant elsewhere"
	movesTCP       = "nothing in the simulated workloads; the live-deployment floor for the same frames"
	movesNone      = "nothing: a property of the measurement itself"
)

// perLayer is reported by every traced run, in this order. A row that does
// not apply to a workload (store rows on a non-durable fleet, span rows on
// chaos-60) reads 0.
var perLayer = []layerMetric{
	// 1. Traced run: phase timers and span self times.
	{"cluster.construct_s", "s", "lower", srcTrace, movesConstruct},
	{"simnet.addnode_s", "s", "lower", srcTrace, movesConstruct},
	{"ring.buildstatic_s", "s", "lower", srcTrace, movesConstruct},
	{"workload.makeapps_s", "s", "lower", srcTrace, "setup_s on bigmodel-1k (dataset generation)"},
	{"engine.deploy_s", "s", "lower", srcTrace, "setup_s on forest-10k and chaos-60 (CreateTree + JOIN routing + settle)"},
	{"cluster.us_per_node", "us", "lower", srcTrace, movesConstruct},
	{"cluster.bytes_per_node", "B", "lower", srcTrace, movesConstruct},
	{"ring.recv_s", "s", "lower", srcTrace, movesRing},
	{"ring.recv_n", "count", "lower", srcTrace, movesRing},
	{"pubsub.recv_s", "s", "lower", srcTrace, movesPubsub},
	{"pubsub.recv_n", "count", "lower", srcTrace, movesPubsub},
	{"engine.recv_s", "s", "lower", srcTrace, movesEngine},
	{"engine.recv_n", "count", "lower", srcTrace, movesEngine},
	{"timer.run_s", "s", "lower", srcTrace, movesML},
	{"timer.run_n", "count", "lower", srcTrace, movesLoop},
	{"simnet.send_s", "s", "lower", srcTrace, movesLoop},
	{"simnet.send_n", "count", "lower", srcTrace, movesLoop},
	{"simnet.after_n", "count", "lower", srcTrace, movesLoop},
	{"codec.size_s", "s", "lower", srcTrace, movesCodec},
	{"codec.size_n", "count", "lower", srcTrace, movesCodec},
	{"ml.eval_s", "s", "lower", srcTrace, movesML},
	{"ml.eval_n", "count", "lower", srcTrace, movesML},
	{"store.append_s", "s", "lower", srcTrace, movesStore},
	{"store.append_n", "count", "lower", srcTrace, movesStore},
	{"store.snapshot_s", "s", "lower", srcTrace, movesStore},
	{"store.snapshot_n", "count", "lower", srcTrace, movesStore},
	{"simnet.events", "count", "lower", srcTrace, movesLoop},
	{"simnet.loop_s", "s", "lower", srcTrace, movesLoop},
	{"simnet.loop_ns_per_event", "ns", "lower", srcTrace, movesLoop},
	{"trace.overhead_pct", "%", "lower", srcTrace, movesNone},

	// 2. Counts at the boundaries, delta over the train phase.
	{"net.msgs_out", "count", "lower", srcCount, movesTraffic},
	{"net.bytes_out", "B", "lower", srcCount, movesTraffic},
	{"net.dropped", "count", "lower", srcCount, "rounds_per_s, virtual_s_per_round on chaos-60; zero elsewhere"},
	{"ring.forwarded", "count", "lower", srcCount, movesRing},
	{"ring.delivered", "count", "lower", srcCount, movesRing},
	{"ring.hop_retries", "count", "lower", srcCount, movesRing},
	{"ring.recontact_probes", "count", "lower", srcCount, movesRing},
	{"pubsub.multicasts_sent", "count", "lower", srcCount, movesPubsub},
	{"pubsub.upstreams_sent", "count", "lower", srcCount, movesPubsub},
	{"pubsub.deliveries", "count", "lower", srcCount, movesPubsub},
	{"pubsub.flushes", "count", "lower", srcCount, movesPubsub},
	{"pubsub.timeout_flushes", "count", "lower", srcCount, movesFL},
	{"pubsub.repairs", "count", "lower", srcCount, movesFL},
	{"pubsub.stale_upstreams", "count", "lower", srcCount, movesFL},
	{"fl.participants", "count", "higher", srcCount, movesFL},
	{"fl.participant_ratio", "ratio", "higher", srcCount, movesFL},
	{"fl.update_bytes", "B", "lower", srcCount, movesTraffic},
	{"fl.round_holds", "count", "lower", srcCount, movesFL},
	{"fl.round_retries", "count", "lower", srcCount, movesFL},
	{"engine.promotions", "count", "lower", srcCount, movesEngine},
	{"engine.recoveries", "count", "lower", srcCount, movesEngine},
	{"store.appends", "count", "lower", srcCount, movesStore},
	{"store.snapshots", "count", "lower", srcCount, movesStore},
	{"store.errors", "count", "lower", srcCount, movesStore},

	// 3. Layer probes.
	{"ml.train_ns_per_sample", "ns", "lower", srcProbe, movesML},
	{"ml.eval_ns_per_sample", "ns", "lower", srcProbe, movesML},
	{"fl.accum_add_ns", "ns", "lower", srcProbe, movesML},
	{"codec.encode_update_ns", "ns", "lower", srcProbe, movesTCP},
	{"codec.decode_update_ns", "ns", "lower", srcProbe, movesTCP},
	{"codec.framesize_update_ns", "ns", "lower", srcProbe, movesCodec},
	{"codec.encode_control_ns", "ns", "lower", srcProbe, movesLoop},
	{"codec.decode_control_ns", "ns", "lower", srcProbe, movesTCP},
	{"codec.update_allocs", "count", "lower", srcProbe, movesCodec},
	{"ring.route_ns_per_hop", "ns", "lower", srcProbe, movesRing},
	{"ring.buildstatic_ns_per_node", "ns", "lower", srcProbe, movesConstruct},
	{"ring.buildstatic_scale", "ratio", "lower", srcProbe, movesConstruct},
	{"pubsub.multicast_ns_per_member", "ns", "lower", srcProbe, movesPubsub},
	{"pubsub.aggregate_ns_per_member", "ns", "lower", srcProbe, movesPubsub},
	{"simnet.dispatch_ns_per_event", "ns", "lower", srcProbe, movesLoop},
	{"simnet.dispatch_allocs_per_event", "count", "lower", srcProbe, movesLoop},
	{"simnet.timer_ns_per_event", "ns", "lower", srcProbe, movesLoop},
	{"store.mem_append_ns", "ns", "lower", srcProbe, movesStore},
	{"store.file_append_ns", "ns", "lower", srcProbe, movesTCP},
	{"store.replay_ns_per_record", "ns", "lower", srcProbe, movesStore},
	{"store.snapshot_mb_per_s", "MB/s", "higher", srcProbe, movesStore},
	{"obs.trace_append_ns", "ns", "lower", srcProbe, movesLoop},
	{"obs.counter_inc_ns", "ns", "lower", srcProbe, movesLoop},
	{"tcpnet.rtt_us_p50", "us", "lower", srcProbe, movesTCP},
	{"tcpnet.rtt_us_p90", "us", "lower", srcProbe, movesTCP},
	{"tcpnet.update_mb_per_s", "MB/s", "higher", srcProbe, movesTCP},
}

// counterNames are the perLayer count rows read straight from
// Net.MergedSnapshot (fl.participant_ratio is derived).
func counterNames() []string {
	var out []string
	for _, m := range perLayer {
		if m.Source == srcCount && m.Name != "fl.participant_ratio" {
			out = append(out, m.Name)
		}
	}
	return out
}

// median returns the middle of xs (mean of the two middles for an even
// count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the exclusive
// method (what Python's statistics.quantiles(xs, n=4) computes), so spreads
// printed here compare with the ones a driver computes. With fewer than two
// values both are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
