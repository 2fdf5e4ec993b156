package simnet

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"totoro/internal/transport"
)

type nopHandler struct{}

func (nopHandler) Receive(transport.Addr, any) {}

func churnNet(n int, seed int64) *Network {
	net := New(Config{Seed: seed})
	for i := 0; i < n; i++ {
		net.AddNode(transport.Addr(fmt.Sprintf("n%d", i)), func(transport.Env) transport.Handler {
			return nopHandler{}
		})
	}
	return net
}

// churnPhase builds a churn phase starting now: a phase whose start has
// passed would rewind the clock (see StartNemesis).
func churnPhase(net *Network, dur, mtbf, down time.Duration, restart bool) Phase {
	return Phase{Kind: "churn", Start: net.Now(), Dur: dur, Params: map[string]string{
		"mtbf": mtbf.String(), "down": down.String(), "restart": fmt.Sprint(restart),
	}}
}

func startChurn(t *testing.T, net *Network, cfg NemesisConfig, ph Phase) *Nemesis {
	t.Helper()
	cfg.Phases = []Phase{ph}
	nm, err := net.StartNemesis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nm
}

// churnTrace runs a churn phase for a fixed window, polling liveness every
// millisecond, and returns the ordered (event, addr, time) trace.
func churnTrace(t *testing.T, seed int64, exempt []transport.Addr) []string {
	net := churnNet(40, 7)
	startChurn(t, net, NemesisConfig{Seed: seed, Exempt: exempt},
		churnPhase(net, 10*time.Second, 200*time.Millisecond, time.Second, false))
	var trace []string
	down := map[transport.Addr]bool{}
	for net.Now() < 10*time.Second {
		net.Run(net.Now() + time.Millisecond)
		for _, a := range net.Addrs() {
			if alive := net.Alive(a); alive == down[a] {
				down[a] = !alive
				ev := "revive"
				if !alive {
					ev = "fail"
				}
				trace = append(trace, fmt.Sprintf("%s %s @%v", ev, a, net.Now()))
			}
		}
	}
	return trace
}

func TestChurnIsDeterministic(t *testing.T) {
	a := churnTrace(t, 3, nil)
	b := churnTrace(t, 3, nil)
	if len(a) == 0 {
		t.Fatal("no churn events in 10s at 200ms mean interval")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	// The draw order is contract: these are the victims and (rounded up to
	// the poll) times the stand-alone churn process drew from seed 3 before
	// it became a phase, so old seeds keep their schedules.
	want := []string{
		"fail n24 @388ms", "fail n10 @1.13s", "fail n14 @1.233s", "fail n20 @1.346s",
		"revive n10 @1.392s", "revive n14 @1.714s", "fail n15 @1.823s", "fail n16 @2.086s",
		"revive n16 @2.332s", "fail n22 @2.389s", "fail n39 @2.668s", "revive n22 @2.684s",
	}
	if len(a) != 72 || !slices.Equal(a[:len(want)], want) {
		t.Fatalf("seed 3 no longer replays its schedule: %d events, first %q", len(a), a[:len(want)])
	}
	// A different seed must give a different schedule.
	c := churnTrace(t, 4, nil)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different churn seeds produced identical traces")
	}
}

func TestChurnRespectsExemptSet(t *testing.T) {
	exempt := []transport.Addr{"n0", "n1", "n2"}
	trace := churnTrace(t, 5, exempt)
	if len(trace) == 0 {
		t.Fatal("no churn events recorded")
	}
	for _, ev := range trace {
		for _, a := range exempt {
			if strings.HasPrefix(ev, fmt.Sprintf("fail %s ", a)) {
				t.Fatalf("exempt node churned: %q", ev)
			}
		}
	}
}

// TestChurnRevivesAndStops: failures stop at phase end, the nodes still
// down then come back on their own timers, and the process terminates.
func TestChurnRevivesAndStops(t *testing.T) {
	net := churnNet(30, 11)
	nm := startChurn(t, net, NemesisConfig{Seed: 1},
		churnPhase(net, 5*time.Second, 100*time.Millisecond, 300*time.Millisecond, false))
	net.Run(5 * time.Second)
	if nm.Kills == 0 || nm.Revives == 0 {
		t.Fatalf("kills=%d revives=%d want both > 0", nm.Kills, nm.Revives)
	}
	kills := nm.Kills
	net.Run(net.Now() + 5*time.Second)
	if nm.Kills != kills {
		t.Fatalf("failures injected after phase end: %d -> %d", kills, nm.Kills)
	}
	// The process must terminate: past phase end its timers stop chaining.
	net.RunUntilIdle()
	if nm.Revives != nm.Kills {
		t.Fatalf("%d of %d victims never came back", nm.Kills-nm.Revives, nm.Kills)
	}
}

func TestChurnNeverKillsEveryone(t *testing.T) {
	net := churnNet(10, 13)
	nm := startChurn(t, net, NemesisConfig{Seed: 2, Exempt: []transport.Addr{"n3"}},
		churnPhase(net, 20*time.Second, 10*time.Millisecond, 0, false)) // brutal: no revive
	net.Run(20 * time.Second)
	if !net.Alive("n3") {
		t.Fatal("exempt node was killed")
	}
	down := 0
	for _, a := range net.Addrs() {
		if !net.Alive(a) {
			down++
		}
	}
	if down != 9 || nm.Kills != 9 {
		t.Fatalf("down=%d kills=%d want 9 (everyone but the exempt node)", down, nm.Kills)
	}
}
