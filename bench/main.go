// Command bench is the engine's one benchmark: four simulated-fleet
// workloads, eight end-to-end metrics, and a traced run that splits each
// round's host time across the layers. README.md in this directory defines
// every metric and workload; BENCHMARK.json at the repository root is the
// machine-readable contract.
//
//	bash bench/run.sh --workload forest-10k --seed 1 --seconds 20 --trace 0   one contract run
//	bash bench/run.sh --workload forest-10k --trace 1                         its per-layer run
//	bash bench/run.sh                                                         the full report
//	bash bench/run.sh -selfcheck                                              the protocol twice, compared
//
// The last line of a --workload run is one JSON object: correct, attempted,
// failed, metrics. The exit code is non-zero when anything was incorrect.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload as a contract run (default: the full report over all four)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same fleet, data and placement")
		seconds      = flag.Int("seconds", 20, "measurement budget of a contract run; repetitions stop when the next would overrun it")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run, counts and probes")
		selfcheck    = flag.Bool("selfcheck", false, "run the end-to-end protocol twice and fail if any metric's two medians differ by more than its bound")
		child        = flag.String("child", "", "internal: run one measurement (run, traced, probes) in this process and print it as JSON")
	)
	flag.Parse()

	if *child != "" {
		w, ok := lookup(*workloadName)
		if !ok && *child != childProbes {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		os.Exit(childMain(*child, w, *seed))
	}

	fmt.Println("machine:", machine())
	switch {
	case *workloadName != "":
		w, ok := lookup(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		// A contract run must end within 180 s; children still running by
		// then are killed and the run fails.
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		defer cancel()
		os.Exit(contractRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
	case *selfcheck:
		os.Exit(selfCheck(context.Background(), *seed))
	default:
		os.Exit(fullReport(context.Background(), *seed))
	}
}

// result is the repetitions of one workload under one seed, with the
// correctness gate's verdict over all of them.
type result struct {
	w         spec
	reps      []rep
	attempted int
	failed    int
	problems  []string
}

func (res *result) fail(n int, format string, args ...any) {
	res.failed += n
	res.problems = append(res.problems, fmt.Sprintf(format, args...))
}

// minReps is the fewest repetitions a budgeted run reports a median of;
// timedRuns is how many the full report and -selfcheck time per workload,
// after one discarded warm-up — the count the bounds were sized at.
const (
	minReps   = 3
	timedRuns = 5
)

// plan says how many untraced repetitions to run: a fixed count, or — with
// reps 0 — as many as fit the budget, at least minReps. warmup adds one
// discarded repetition first: a cold VM doubles the first multi-GB run.
type plan struct {
	warmup bool
	reps   int
	budget time.Duration
}

// measure runs untraced repetitions of w, each in a fresh process. Every
// repetition must pass the gate and agree on sim_digest.
func measure(ctx context.Context, w spec, seed int64, p plan) *result {
	res := &result{w: w}
	sim := seed
	if p.warmup {
		if _, err := spawn(ctx, childRun, w, sim); err != nil {
			fmt.Fprintln(os.Stderr, "bench: warm-up:", err)
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		if p.reps > 0 && i >= p.reps {
			break
		}
		// Stop when the next repetition, at the mean pace so far, would
		// overrun the budget.
		if p.reps == 0 && i >= minReps && time.Since(start)*time.Duration(i+1)/time.Duration(i) > p.budget {
			break
		}
		out, err := spawn(ctx, childRun, w, sim)
		res.attempted += w.Apps * w.Rounds
		if err != nil {
			res.fail(w.Apps*w.Rounds, "%v", err)
			break // a crashed or hung child will not get better by repeating it
		}
		r := *out.Rep
		res.reps = append(res.reps, r)
		res.failed += r.Failed
		res.problems = append(res.problems, r.Problems...)
		if r.Digest != res.reps[0].Digest {
			res.fail(1, "repetition %d: sim_digest %s differs from %s: the simulation is not deterministic", i, r.Digest, res.reps[0].Digest)
		}
	}
	return res
}

// e2e derives the eight end-to-end values from one repetition.
func e2e(w spec, r rep) map[string]float64 {
	rounds := math.Max(1, float64(r.Committed))
	return map[string]float64{
		"setup_s":             r.SetupS,
		"rounds_per_s":        float64(r.Committed) / r.TrainWallS,
		"train_cpu_s":         r.TrainCPUS,
		"peak_rss_mb":         r.PeakRSSMB,
		"allocs_per_round":    float64(r.Mallocs) / rounds,
		"bytes_per_round":     float64(r.BytesOut) / rounds,
		"virtual_s_per_round": r.VirtualS / float64(w.Rounds),
		"final_accuracy":      r.FinalAcc,
	}
}

// series returns one end-to-end metric's value in every repetition.
func (res *result) series(name string) []float64 {
	out := make([]float64, len(res.reps))
	for i, r := range res.reps {
		out[i] = e2e(res.w, r)[name]
	}
	return out
}

func (res *result) digest() string {
	if len(res.reps) == 0 {
		return "none"
	}
	return res.reps[0].Digest
}

// printE2E prints every end-to-end metric by name: median, quartiles, count.
func (res *result) printE2E() {
	fmt.Printf("%s: %d repetitions, sim_digest %s, %d of %d rounds failed\n",
		res.w.Name, len(res.reps), res.digest(), res.failed, res.attempted)
	for _, m := range endToEnd {
		xs := res.series(m.Name)
		q1, q3 := quartiles(xs)
		fmt.Printf("  %-20s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d  %s time, %s is better\n",
			m.Name, median(xs), m.Unit, q1, q3, len(xs), m.Clock, m.Better)
	}
	for _, p := range res.problems {
		fmt.Println("  PROBLEM:", p)
	}
}

// traceRun runs the traced repetition of a fault-free workload right after
// its untraced ones (host speed drifts over minutes, and the overhead figure
// compares the two) and holds its digest against theirs. It returns nil for
// chaos, which has no traced fleet, and when the traced child failed.
func traceRun(ctx context.Context, res *result, seed int64) *rep {
	w := res.w
	if w.Chaos || len(res.reps) == 0 {
		return nil
	}
	out, err := spawn(ctx, childTraced, w, seed)
	res.attempted += w.Apps * w.Rounds
	if err != nil {
		res.fail(w.Apps*w.Rounds, "%v", err)
		return nil
	}
	traced := out.Rep
	res.failed += traced.Failed
	res.problems = append(res.problems, traced.Problems...)
	if traced.Digest != res.digest() {
		res.fail(1, "traced fleet sim_digest %s differs from the untraced run's %s: the shimmed fleet is not the same system", traced.Digest, res.digest())
	}
	return traced
}

// baseline is the untraced repetition the per-layer report reads counts and
// phase timers from, with the median train wall of all repetitions as the
// reference for trace.overhead_pct.
func (res *result) baseline() rep {
	b := res.reps[0]
	walls := make([]float64, len(res.reps))
	for i, r := range res.reps {
		walls[i] = r.TrainWallS
	}
	b.TrainWallS = median(walls)
	return b
}

func printLayers(w spec, values map[string]float64) {
	fmt.Printf("%s: per-layer metrics\n", w.Name)
	for _, m := range perLayer {
		fmt.Printf("  %-34s %16.6g %-6s %s\n", m.Name, values[m.Name], m.Unit, m.Source)
	}
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractRun is one `--workload` invocation: measure, print every metric by
// name, and end with the one-line JSON result.
func contractRun(ctx context.Context, w spec, seed int64, budget time.Duration, traced bool) int {
	metrics := make(map[string]metricValue)
	var res *result
	if !traced {
		res = measure(ctx, w, seed, plan{budget: budget})
		res.printE2E()
		for _, m := range endToEnd {
			metrics[m.Name] = metricValue{median(res.series(m.Name)), m.Unit}
		}
	} else {
		// One untraced repetition for the counts and the overhead baseline,
		// one traced, and on probeWorkload the probes — each in its own
		// process.
		res = measure(ctx, w, seed, plan{reps: 1})
		if len(res.reps) > 0 {
			traced := traceRun(ctx, res, seed)
			var probes map[string]float64
			if w.Name == probeWorkload {
				probeOut, err := spawn(ctx, childProbes, w, seed)
				if err != nil {
					res.fail(1, "%v", err)
				}
				probes = probeOut.Probes
			}
			values := layerMetrics(w, res.baseline(), traced, probes)
			printLayers(w, values)
			for _, m := range perLayer {
				metrics[m.Name] = metricValue{values[m.Name], m.Unit}
			}
		}
		for _, p := range res.problems {
			fmt.Println("  PROBLEM:", p)
		}
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.fail(1, "metric %s is not a number", name)
			delete(metrics, name)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, max(1, res.attempted), res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// fullReport is the whole protocol on every workload: warm-up plus timedRuns
// repetitions for the end-to-end table, then the traced run, the
// boundary counts and the probes for the per-layer tables, then each
// workload's profile (the shares README.md's workload reasons rest on).
func fullReport(ctx context.Context, seed int64) int {
	failed := 0
	results := make([]*result, len(workloads))
	traced := make([]*rep, len(workloads))
	for i, w := range workloads {
		results[i] = measure(ctx, w, seed, plan{warmup: true, reps: timedRuns})
		traced[i] = traceRun(ctx, results[i], seed)
		results[i].printE2E()
	}
	probeOut, err := spawn(ctx, childProbes, spec{}, seed)
	if err != nil {
		fmt.Println("PROBLEM:", err)
		failed++
	}
	for i, res := range results {
		if len(res.reps) > 0 {
			var probes map[string]float64
			if res.w.Name == probeWorkload {
				probes = probeOut.Probes
			}
			values := layerMetrics(res.w, res.baseline(), traced[i], probes)
			printLayers(res.w, values)
			printProfile(res.w, res.baseline(), values)
		}
		failed += res.failed
	}
	if failed > 0 {
		fmt.Printf("FAILED: %d operations failed\n", failed)
		return 1
	}
	return 0
}

// printProfile prints where a workload's time goes, as shares of the traced
// train wall and of the whole run.
func printProfile(w spec, baseline rep, v map[string]float64) {
	fmt.Printf("%s: profile\n", w.Name)
	fmt.Printf("  setup share of run       %5.1f %%  (setup_s / (setup_s + train wall), untraced)\n",
		100*baseline.SetupS/(baseline.SetupS+baseline.TrainWallS))
	if w.Chaos {
		return
	}
	wall := v["simnet.loop_s"]
	for _, name := range spanNames {
		wall += v[name+"_s"]
	}
	share := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += v[n]
		}
		return 100 * sum / wall
	}
	fmt.Printf("  ml+fl+codec share        %5.1f %%  (timer.run_s + ml.eval_s + codec.size_s of traced train wall)\n",
		share("timer.run_s", "ml.eval_s", "codec.size_s"))
	fmt.Printf("  pubsub+simnet share      %5.1f %%  (pubsub.recv_s + simnet.send_s + simnet.loop_s)\n",
		share("pubsub.recv_s", "simnet.send_s", "simnet.loop_s"))
	fmt.Printf("  ring+engine+store share  %5.1f %%  (ring.recv_s + engine.recv_s + store.append_s + store.snapshot_s)\n",
		share("ring.recv_s", "engine.recv_s", "store.append_s", "store.snapshot_s"))
	fmt.Printf("  traced wall vs untraced  %+5.1f %%  (trace.overhead_pct: the part of the untraced wall the rows above do not explain)\n",
		v["trace.overhead_pct"])
}

// selfCheck runs the end-to-end protocol twice on the same code and prints,
// per (metric, workload), both medians, their ratio and the bound. It fails
// when a host-time pair disagrees by more than its bound or a virtual-time
// pair (or the digest) disagrees at all; pairs whose own spread exceeds 10 %
// are listed, not hidden. It is how the bounds in BENCHMARK.json are chosen.
func selfCheck(ctx context.Context, seed int64) int {
	bad := 0
	var wide []string
	for _, w := range workloads {
		a := measure(ctx, w, seed, plan{warmup: true, reps: timedRuns})
		b := measure(ctx, w, seed, plan{warmup: true, reps: timedRuns})
		fmt.Printf("%s: digests %s / %s, failed %d / %d\n", w.Name, a.digest(), b.digest(), a.failed, b.failed)
		if a.digest() != b.digest() || a.failed+b.failed > 0 {
			bad++
			for _, p := range append(a.problems, b.problems...) {
				fmt.Println("  PROBLEM:", p)
			}
		}
		for _, m := range endToEnd {
			xa, xb := a.series(m.Name), b.series(m.Name)
			ma, mb := median(xa), median(xb)
			verdict := "ok"
			limit := m.Bound
			if m.Clock == virtual {
				limit = 0 // simulated statistics repeat exactly for a seed
			}
			if diff := math.Abs(mb-ma) / math.Abs(ma); !(diff <= limit) {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("  %-20s %14.6g %14.6g  ratio %.4f  bound %.2f  %s\n", m.Name, ma, mb, mb/ma, limit, verdict)
			for _, xs := range [][]float64{xa, xb} {
				q1, q3 := quartiles(xs)
				if spread := (q3 - q1) / math.Abs(median(xs)); spread > 0.10 {
					wide = append(wide, fmt.Sprintf("%s on %s: spread %.1f %%", m.Name, w.Name, 100*spread))
				}
			}
		}
	}
	sort.Strings(wide)
	for _, s := range wide {
		fmt.Println("spread above 10 %:", s)
	}
	if bad > 0 {
		fmt.Printf("FAILED: %d disagreements\n", bad)
		return 1
	}
	fmt.Println("selfcheck ok")
	return 0
}
