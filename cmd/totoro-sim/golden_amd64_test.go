//go:build amd64

package main

import (
	"hash/fnv"
	"os"
	"os/exec"
	"testing"
)

// asCommand, as the test binary's first argument, makes it run main with
// the arguments after it instead of the tests: the golden runs below
// execute the command itself without building it.
const asCommand = "as-totoro-sim"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == asCommand {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ciNemesis is the nine-phase schedule CI's nemesis replay runs.
const ciNemesis = "partition@1s+2s/frac=0.25;drop@500ms+3s/p=0.1;dup@500ms+3s/p=0.25;delay@800ms+2s/d=30ms;slow@1s+2s/n=2,d=20ms;oneway@1200ms+1800ms/frac=0.2;kill@2s+1.5s/n=2;disk@1500ms+1500ms/n=2"

// goldenRuns pins the whole stdout of three runs by its FNV-64a hash: the
// default fleet with its merged telemetry, CI's seed-229 nemesis run and
// the crash-restart churn run. The hashes were recorded before masterState
// embedded its image and must never be re-recorded to make a change pass:
// a change meant to leave behaviour alone leaves them green.
var goldenRuns = []struct {
	name string
	args []string
	hash uint64
}{
	{"default", []string{"-apps", "3", "-clients", "12", "-rounds", "10", "-metrics"}, 0xee4bb5ca1d904352},
	{"nemesis-229", []string{"-nodes", "40", "-apps", "1", "-clients", "10", "-rounds", "6", "-seed", "229", "-nemesis", ciNemesis, "-metrics"}, 0x8e7d8fcb5f14b9a9},
	{"churn-restart", []string{"-nodes", "80", "-apps", "2", "-clients", "10", "-rounds", "12", "-churn", "400ms", "-churn-down", "2s", "-churn-restart"}, 0xcca9a8d6aaf14629},
}

func TestRunsAreGolden(t *testing.T) {
	for _, run := range goldenRuns {
		t.Run(run.name, func(t *testing.T) {
			out, err := exec.Command(os.Args[0], append([]string{asCommand}, run.args...)...).Output()
			if err != nil {
				t.Fatalf("totoro-sim %v: %v", run.args, err)
			}
			h := fnv.New64a()
			h.Write(out)
			if got := h.Sum64(); got != run.hash {
				t.Fatalf("totoro-sim %v printed output hashing to %#x, want %#x:\n%s", run.args, got, run.hash, out)
			}
		})
	}
}
