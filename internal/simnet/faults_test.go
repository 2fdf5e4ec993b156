package simnet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"totoro/internal/transport"
)

func TestPartitionBlocksAndHeals(t *testing.T) {
	net, ra, rb, ea, eb := twoNodes(t, Config{Seed: 1})
	heal := net.Partition([]transport.Addr{"a"}, []transport.Addr{"b"})
	ea.Send("b", "lost")
	eb.Send("a", "lost too")
	net.RunUntilIdle()
	if len(rb.got) != 0 || len(ra.got) != 0 {
		t.Fatalf("partitioned messages delivered: a=%v b=%v", ra.got, rb.got)
	}
	if got := net.Metrics().Counter("net.dropped_partition").Value(); got != 2 {
		t.Fatalf("net.dropped_partition = %d want 2", got)
	}
	if net.Reachable("a", "b") {
		t.Fatal("Reachable true across a partition")
	}
	heal()
	heal() // idempotent
	if !net.Reachable("a", "b") {
		t.Fatal("Reachable false after heal")
	}
	ea.Send("b", "through")
	net.RunUntilIdle()
	if len(rb.got) != 1 || rb.got[0] != "through" {
		t.Fatalf("post-heal delivery: %v", rb.got)
	}
}

func TestOverlappingPartitionsComposeViaRefcount(t *testing.T) {
	net, _, rb, ea, _ := twoNodes(t, Config{Seed: 1})
	h1 := net.Partition([]transport.Addr{"a"}, []transport.Addr{"b"})
	h2 := net.Partition([]transport.Addr{"a"}, []transport.Addr{"b"})
	h1()
	ea.Send("b", "still blocked")
	net.RunUntilIdle()
	if len(rb.got) != 0 {
		t.Fatalf("link healed while second partition still active: %v", rb.got)
	}
	h2()
	ea.Send("b", "open")
	net.RunUntilIdle()
	if len(rb.got) != 1 {
		t.Fatalf("link still blocked after both heals: %v", rb.got)
	}
}

func TestOneWayPartitionIsAsymmetric(t *testing.T) {
	net, ra, rb, ea, eb := twoNodes(t, Config{Seed: 1})
	heal := net.BlockOneWay([]transport.Addr{"a"}, []transport.Addr{"b"})
	defer heal()
	ea.Send("b", "blocked")
	eb.Send("a", "passes")
	net.RunUntilIdle()
	if len(rb.got) != 0 {
		t.Fatalf("a→b should be blocked, b got %v", rb.got)
	}
	if len(ra.got) != 1 || ra.got[0] != "passes" {
		t.Fatalf("b→a should pass, a got %v", ra.got)
	}
	if net.Reachable("a", "b") {
		t.Fatal("Reachable must be false when either direction is blocked")
	}
}

func TestLinkRuleDropCountsCause(t *testing.T) {
	net, _, rb, ea, _ := twoNodes(t, Config{Seed: 7})
	remove := net.AddLinkRule(LinkRule{Drop: 1.0})
	ea.Send("b", "gone")
	net.RunUntilIdle()
	if len(rb.got) != 0 {
		t.Fatalf("drop rule leaked: %v", rb.got)
	}
	if got := net.Metrics().Counter("net.dropped_fault").Value(); got != 1 {
		t.Fatalf("net.dropped_fault = %d want 1", got)
	}
	if net.Dropped() != 1 {
		t.Fatalf("net.dropped total = %d want 1", net.Dropped())
	}
	remove()
	remove() // idempotent
	ea.Send("b", "back")
	net.RunUntilIdle()
	if len(rb.got) != 1 {
		t.Fatalf("rule still active after removal: %v", rb.got)
	}
}

func TestLinkRuleDuplicates(t *testing.T) {
	net, _, rb, ea, _ := twoNodes(t, Config{Seed: 7})
	defer net.AddLinkRule(LinkRule{Dup: 1.0})()
	ea.Send("b", "twice")
	net.RunUntilIdle()
	if len(rb.got) != 2 || rb.got[0] != "twice" || rb.got[1] != "twice" {
		t.Fatalf("want 2 copies, got %v", rb.got)
	}
	if got := net.Metrics().Counter("net.dup_injected").Value(); got != 1 {
		t.Fatalf("net.dup_injected = %d want 1", got)
	}
	// The sender transmitted once; the receiver really received twice.
	if got := net.MetricsOf("a").Counter(CtrMsgsOut).Value(); got != 1 {
		t.Fatalf("sender msgsOut = %d want 1", got)
	}
	if got := net.MetricsOf("b").Counter(CtrMsgsIn).Value(); got != 2 {
		t.Fatalf("receiver msgsIn = %d want 2", got)
	}
}

func TestLinkRuleReorderSwapsDelivery(t *testing.T) {
	// Hold back only messages carrying rule-matched links with certainty and
	// a wide window: with enough sends, at least one later message must
	// overtake an earlier one.
	net, _, rb, ea, _ := twoNodes(t, Config{Seed: 3})
	defer net.AddLinkRule(LinkRule{Reorder: 0.5, ReorderWindow: 50 * time.Millisecond})()
	for i := 0; i < 20; i++ {
		ea.Send("b", fmt.Sprintf("m%02d", i))
	}
	net.RunUntilIdle()
	if len(rb.got) != 20 {
		t.Fatalf("got %d messages want 20", len(rb.got))
	}
	inOrder := true
	for i := 1; i < len(rb.got); i++ {
		if rb.got[i] < rb.got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("no reordering observed under a certain-reorder rule")
	}
	if net.Metrics().Counter("net.reorder_injected").Value() == 0 {
		t.Fatal("net.reorder_injected stayed zero")
	}
}

func TestLinkRuleDelayAddsLatency(t *testing.T) {
	net, _, rb, ea, _ := twoNodes(t, Config{Latency: ConstLatency(time.Millisecond)})
	defer net.AddLinkRule(LinkRule{Delay: 30 * time.Millisecond})()
	ea.Send("b", "slow")
	net.RunUntilIdle()
	if rb.at[0] != 31*time.Millisecond {
		t.Fatalf("delivered at %v want 31ms", rb.at[0])
	}
}

func TestLinkRuleOneDirectional(t *testing.T) {
	net, ra, rb, ea, eb := twoNodes(t, Config{Seed: 5})
	defer net.AddLinkRule(LinkRule{From: AddrSet([]transport.Addr{"a"}), Drop: 1.0})()
	ea.Send("b", "dropped")
	eb.Send("a", "fine")
	net.RunUntilIdle()
	if len(rb.got) != 0 {
		t.Fatalf("a→b rule leaked: %v", rb.got)
	}
	if len(ra.got) != 1 {
		t.Fatalf("b→a should be clean: %v", ra.got)
	}
}

func TestDeadDestinationCountsCause(t *testing.T) {
	net, _, _, ea, _ := twoNodes(t, Config{})
	net.Fail("b")
	ea.Send("b", "void")
	net.RunUntilIdle()
	if got := net.Metrics().Counter("net.dropped_dead").Value(); got != 1 {
		t.Fatalf("net.dropped_dead = %d want 1", got)
	}
}

func TestLossCountsCause(t *testing.T) {
	net, _, _, ea, _ := twoNodes(t, Config{Seed: 2})
	net.AddLinkRule(LinkRule{From: AddrSet([]transport.Addr{"a"}), To: AddrSet([]transport.Addr{"b"}), Drop: 1})
	ea.Send("b", "lost")
	net.RunUntilIdle()
	if got := net.Metrics().Counter("net.dropped_fault").Value(); got != 1 {
		t.Fatalf("net.dropped_fault = %d want 1", got)
	}
}

func TestInvariantCheckerFailsRunWithSeed(t *testing.T) {
	var got *InvariantViolation
	net, _, _, ea, _ := twoNodes(t, Config{
		Seed:        42,
		OnViolation: func(v *InvariantViolation) { got = v },
	})
	healthy := true
	net.AddInvariant(func() error {
		if healthy {
			return nil
		}
		return errors.New("round regressed")
	})
	ea.Send("b", "ok")
	net.RunUntilIdle()
	if got != nil {
		t.Fatalf("violation before fault: %v", got)
	}
	healthy = false
	ea.Send("b", "trip")
	net.RunUntilIdle()
	if got == nil {
		// The tick gate only runs checks when time advances; quiesce must
		// catch anything the last batch left behind.
		net.CheckInvariants()
	}
	if got == nil {
		t.Fatal("invariant violation not detected")
	}
	if got.Seed != 42 {
		t.Fatalf("violation seed = %d want 42", got.Seed)
	}
	if !strings.Contains(got.Error(), "round regressed") || !strings.Contains(got.Error(), "seed 42") {
		t.Fatalf("violation message lacks cause or seed: %s", got.Error())
	}
	if v := net.Violation(); v != got {
		t.Fatalf("Violation() = %v want the recorded one", v)
	}
}

func TestInvariantCheckerPanicsWithoutHandler(t *testing.T) {
	net := New(Config{Seed: 9})
	net.AddNode("a", func(e transport.Env) transport.Handler { return &recorder{env: e} })
	net.AddInvariant(func() error { return errors.New("split brain") })
	net.ScheduleAfter(time.Millisecond, func() {})
	defer func() {
		v, ok := recover().(*InvariantViolation)
		if !ok {
			t.Fatalf("expected *InvariantViolation panic, got %v", v)
		}
		if v.Seed != 9 {
			t.Fatalf("seed %d want 9", v.Seed)
		}
	}()
	net.RunUntilIdle()
	t.Fatal("no panic")
}

func TestParseScheduleRoundTrip(t *testing.T) {
	spec := "partition@2s+3s/frac=0.4; drop@1s+6s/p=0.2 ;kill@4s+2s/n=2,restart=true;disk@500ms+1s;" +
		"churn@0s+1m/mtbf=400ms,down=5s,restart=true"
	phases, err := ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 5 {
		t.Fatalf("got %d phases", len(phases))
	}
	if ch := phases[4]; ch.duration("mtbf", 0) != 400*time.Millisecond ||
		ch.duration("down", 0) != 5*time.Second || !ch.boolean("restart", false) {
		t.Fatalf("churn params: %+v", ch)
	}
	if phases[0].Kind != "partition" || phases[0].Start != 2*time.Second || phases[0].Dur != 3*time.Second {
		t.Fatalf("phase 0: %+v", phases[0])
	}
	if phases[0].float("frac", 0) != 0.4 {
		t.Fatalf("frac: %+v", phases[0])
	}
	if phases[2].intp("n", 0) != 2 || !phases[2].boolean("restart", false) {
		t.Fatalf("kill params: %+v", phases[2])
	}
	// String() renders back into parseable spec syntax.
	for _, ph := range phases {
		if _, err := ParseSchedule(ph.String()); err != nil {
			t.Fatalf("re-parse %q: %v", ph.String(), err)
		}
	}
}

func TestParseScheduleRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"partition",
		"warp@1s+2s",
		"partition@1s",
		"partition@-1s+2s",
		"partition@1s+0s",
		"partition@1s+2s/bogus=1",
		"kill@1s+2s/n",
		"churn@1s+2s/n=2",
		"drop@x+2s/p=0.1",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func nemesisNet(t *testing.T, n int, seed int64) *Network {
	t.Helper()
	net := New(Config{Seed: seed})
	for i := 0; i < n; i++ {
		net.AddNode(transport.Addr(fmt.Sprintf("n%02d", i)), func(e transport.Env) transport.Handler {
			return &recorder{env: e}
		})
	}
	return net
}

func TestNemesisPartitionPhaseActivatesAndHeals(t *testing.T) {
	net := nemesisNet(t, 10, 1)
	var events []string
	nm, err := net.StartNemesis(NemesisConfig{
		Seed: 11,
		Spec: "partition@10ms+20ms/frac=0.3",
		OnPhase: func(ph Phase, active bool, victims []transport.Addr) {
			events = append(events, fmt.Sprintf("%s active=%v victims=%d", ph.Kind, active, len(victims)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(5 * time.Millisecond)
	if net.PartitionedLinks() != 0 {
		t.Fatal("partition active before its start time")
	}
	net.Run(15 * time.Millisecond)
	if net.PartitionedLinks() == 0 {
		t.Fatal("partition not active mid-phase")
	}
	net.Run(50 * time.Millisecond)
	if net.PartitionedLinks() != 0 {
		t.Fatal("partition not healed after phase end")
	}
	if nm.Phases != 1 {
		t.Fatalf("phases run = %d", nm.Phases)
	}
	want := []string{"partition active=true victims=3", "partition active=false victims=3"}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("events %v want %v", events, want)
	}
}

func TestNemesisKillRestartsAtPhaseEnd(t *testing.T) {
	net := nemesisNet(t, 6, 2)
	var restarted []transport.Addr
	nm, err := net.StartNemesis(NemesisConfig{
		Seed:      3,
		Spec:      "kill@5ms+10ms/n=2",
		Exempt:    []transport.Addr{"n00"},
		OnRestart: func(a transport.Addr, now time.Duration) { restarted = append(restarted, a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(8 * time.Millisecond)
	down := 0
	for _, a := range net.Addrs() {
		if !net.Alive(a) {
			if a == "n00" {
				t.Fatal("exempt node killed")
			}
			down++
		}
	}
	if down != 2 {
		t.Fatalf("down = %d want 2", down)
	}
	net.Run(30 * time.Millisecond)
	for _, a := range net.Addrs() {
		if !net.Alive(a) {
			t.Fatalf("%s still down after phase end", a)
		}
	}
	if nm.Kills != 2 || nm.Restarts != 2 {
		t.Fatalf("kills=%d restarts=%d", nm.Kills, nm.Restarts)
	}
	if len(restarted) != 2 {
		t.Fatalf("OnRestart fired %d times", len(restarted))
	}
}

func TestNemesisDiskPhaseUsesHook(t *testing.T) {
	net := nemesisNet(t, 4, 2)
	calls := map[transport.Addr][]bool{}
	_, err := net.StartNemesis(NemesisConfig{
		Seed:   5,
		Spec:   "disk@2ms+6ms/n=2",
		OnDisk: func(a transport.Addr, active bool) { calls[a] = append(calls[a], active) },
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(20 * time.Millisecond)
	if len(calls) != 2 {
		t.Fatalf("disk hook hit %d nodes want 2", len(calls))
	}
	for a, seq := range calls {
		if len(seq) != 2 || !seq[0] || seq[1] {
			t.Fatalf("node %s saw %v want [true false]", a, seq)
		}
	}
}

func TestNemesisVictimSelectionDeterministic(t *testing.T) {
	run := func() []string {
		net := nemesisNet(t, 12, 4)
		var picked []string
		_, err := net.StartNemesis(NemesisConfig{
			Seed: 77,
			Spec: "partition@1ms+2ms/frac=0.25;kill@4ms+1ms/n=3;slow@6ms+2ms/n=2",
			OnPhase: func(ph Phase, active bool, victims []transport.Addr) {
				if active {
					for _, v := range victims {
						picked = append(picked, ph.Kind+":"+string(v))
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Run(20 * time.Millisecond)
		return picked
	}
	a, b := run(), run()
	if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("victim selection not deterministic:\n%v\n%v", a, b)
	}
}
