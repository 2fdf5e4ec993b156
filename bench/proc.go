package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// Every repetition runs in a fresh child process (a re-exec of this binary)
// so peak RSS, heap size and GC pacing never leak from one measurement into
// the next: a 2 GB fleet-50k heap left behind would otherwise set the GC
// target — and the resident set — of whatever ran after it.

// Child kinds, the value of -child.
const (
	childRun    = "run"    // one untraced repetition through Cluster
	childTraced = "traced" // one traced repetition on the shimmed fleet
	childProbes = "probes" // the layer probes
)

// childOut is the one JSON line a child prints last on its standard output.
type childOut struct {
	Rep    *rep               `json:",omitempty"`
	Probes map[string]float64 `json:",omitempty"`
	Err    string             `json:",omitempty"`
}

// benchProcs is the parallelism every child runs at: min(nproc, 4), so
// numbers from a 2-core sandbox and a 64-core workstation stay comparable.
func benchProcs() int { return min(runtime.NumCPU(), 4) }

// childMain runs one measurement in this process and prints its result.
func childMain(kind string, w spec, seed int64) int {
	runtime.GOMAXPROCS(benchProcs())
	var out childOut
	switch kind {
	case childRun:
		r := runCluster(w, seed)
		out.Rep = &r
	case childTraced:
		r := runTraced(w, seed)
		out.Rep = &r
	case childProbes:
		probes, err := runProbes(fullProbes)
		if err != nil {
			out.Err = err.Error()
		}
		out.Probes = probes
	default:
		out.Err = "unknown -child kind " + kind
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	fmt.Println(string(line))
	if out.Err != "" {
		return 1
	}
	return 0
}

// spawn runs one child to completion and returns what it measured. The
// child's peak resident set comes from its rusage, read after it exited.
func spawn(ctx context.Context, kind string, w spec, seed int64) (childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return childOut{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", kind, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var out childOut
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if perr := json.Unmarshal(lines[len(lines)-1], &out); perr != nil {
		if runErr != nil {
			return out, fmt.Errorf("%s child of %s: %w", kind, w.Name, runErr)
		}
		return out, fmt.Errorf("%s child of %s printed no result: %w", kind, w.Name, perr)
	}
	if out.Err != "" {
		return out, fmt.Errorf("%s child of %s: %s", kind, w.Name, out.Err)
	}
	if runErr != nil {
		return out, fmt.Errorf("%s child of %s: %w", kind, w.Name, runErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && out.Rep != nil {
		out.Rep.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out, nil
}

// processCPU is this process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// machine describes where the numbers were taken; printed with every report.
func machine() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s %s/%s",
		cpu, runtime.NumCPU(), benchProcs(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
