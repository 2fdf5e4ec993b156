package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The smoke test runs every workload, the traced fleet and every probe at a
// tiny fixed scale, and holds the metric catalogue and BENCHMARK.json
// together. Run it with `go test` from this directory; the package is its
// own module, so the repository's `go test ./...` does not reach it.

const smokeSeed = 1

// tiny shrinks a workload to smoke-test scale: same code path, a fraction of
// a second.
func tiny(w spec) spec {
	w.Nodes = max(60, w.Nodes/125)
	w.Hidden = min(w.Hidden, 32)
	w.Apps = min(w.Apps, 2)
	w.Workers = min(w.Workers, 10)
	w.Rounds = 3
	if w.Chaos {
		w.Rounds = 6 // long enough to live through the fault windows
	}
	w.AccFloor = 0
	return w
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s does not match %v", u, n, unit)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (2..8 allowed)", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name, "")
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program has {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.Name, m.Unit)
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program has %+v", i, got, m)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m.Name, m.Unit)
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program has {%s %s %s}", i, got, m.Name, m.Unit, m.Better)
		}
	}
}

func TestTinyWorkloads(t *testing.T) {
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.Name, func(t *testing.T) {
			untraced := runCluster(w, smokeSeed)
			if untraced.Failed != 0 || untraced.Committed != w.Apps*w.Rounds {
				t.Fatalf("untraced run failed %d of %d rounds: %v", untraced.Failed, w.Apps*w.Rounds, untraced.Problems)
			}
			values := e2e(w, untraced)
			if len(values) != len(endToEnd) {
				t.Errorf("e2e reports %d metrics, the catalogue has %d", len(values), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := values[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present %v)", m.Name, v, ok)
				}
			}

			var traced *rep
			if !w.Chaos {
				r := runTraced(w, smokeSeed)
				traced = &r
				if r.Failed != 0 {
					t.Fatalf("traced run failed %d rounds: %v", r.Failed, r.Problems)
				}
				if r.Digest != untraced.Digest {
					t.Fatalf("traced fleet digest %s, untraced %s: the shimmed fleet is not the same system", r.Digest, untraced.Digest)
				}
				if r.Events == 0 || r.Spans[spanNames[idPubsubRecv]].N == 0 || r.Spans[spanNames[idSend]].N == 0 {
					t.Errorf("traced run recorded no work: events %d, spans %+v", r.Events, r.Spans)
				}
			}
			layer := layerMetrics(w, untraced, traced, nil)
			if len(layer) != len(perLayer) {
				t.Errorf("layerMetrics reports %d metrics, the catalogue has %d", len(layer), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := layer[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v)", m.Name, v, ok)
				}
			}
			if w.Durable != (layer["store.appends"] > 0) {
				t.Errorf("store.appends = %v on a workload with Durable=%v", layer["store.appends"], w.Durable)
			}
		})
	}
}

func TestTinyProbes(t *testing.T) {
	values, err := runProbes(probeCfg{batches: 2, div: 50})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, m := range perLayer {
		if m.Source != srcProbe {
			continue
		}
		want++
		if v, ok := values[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("probe %s = %v (present %v)", m.Name, v, ok)
		}
	}
	if len(values) != want {
		t.Errorf("probes report %d values, the catalogue has %d probe rows", len(values), want)
	}
}
