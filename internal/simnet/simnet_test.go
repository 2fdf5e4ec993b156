package simnet

import (
	"testing"
	"time"

	"totoro/internal/transport"
)

type recorder struct {
	env  transport.Env
	got  []string
	from []transport.Addr
	at   []time.Duration
}

func (r *recorder) Receive(from transport.Addr, msg any) {
	if s, ok := msg.(string); ok {
		r.got = append(r.got, s)
	} else {
		r.got = append(r.got, "")
	}
	r.from = append(r.from, from)
	r.at = append(r.at, r.env.Now())
}

func twoNodes(t *testing.T, cfg Config) (*Network, *recorder, *recorder, transport.Env, transport.Env) {
	t.Helper()
	net := New(cfg)
	ra, rb := &recorder{}, &recorder{}
	ea := net.AddNode("a", func(e transport.Env) transport.Handler { ra.env = e; return ra })
	eb := net.AddNode("b", func(e transport.Env) transport.Handler { rb.env = e; return rb })
	return net, ra, rb, ea, eb
}

func TestDeliveryWithLatency(t *testing.T) {
	net, _, rb, ea, _ := twoNodes(t, Config{Latency: ConstLatency(5 * time.Millisecond)})
	ea.Send("b", "hello")
	net.RunUntilIdle()
	if len(rb.got) != 1 || rb.got[0] != "hello" {
		t.Fatalf("got %v", rb.got)
	}
	if rb.at[0] != 5*time.Millisecond {
		t.Fatalf("delivered at %v want 5ms", rb.at[0])
	}
	if rb.from[0] != "a" {
		t.Fatalf("from %v", rb.from[0])
	}
}

func TestOrderingDeterministic(t *testing.T) {
	// Two messages with equal latency must arrive in send order.
	net, _, rb, ea, _ := twoNodes(t, Config{})
	ea.Send("b", "one")
	ea.Send("b", "two")
	net.RunUntilIdle()
	if len(rb.got) != 2 || rb.got[0] != "one" || rb.got[1] != "two" {
		t.Fatalf("got %v", rb.got)
	}
}

func TestLossDropsAll(t *testing.T) {
	net, _, rb, ea, _ := twoNodes(t, Config{})
	net.AddLinkRule(LinkRule{Drop: 1.0})
	ea.Send("b", "x")
	net.RunUntilIdle()
	if len(rb.got) != 0 {
		t.Fatalf("expected drop, got %v", rb.got)
	}
	if net.Dropped() != 1 {
		t.Fatalf("Dropped=%d", net.Dropped())
	}
}

func TestLossRate(t *testing.T) {
	net, _, rb, ea, _ := twoNodes(t, Config{Seed: 42})
	net.AddLinkRule(LinkRule{Drop: 0.3})
	const total = 5000
	for i := 0; i < total; i++ {
		ea.Send("b", "x")
	}
	net.RunUntilIdle()
	gotRate := 1 - float64(len(rb.got))/total
	if gotRate < 0.27 || gotRate > 0.33 {
		t.Fatalf("loss rate %.3f not near 0.3", gotRate)
	}
}

func TestTimerFiresOnceAndCancel(t *testing.T) {
	net, ra, _, ea, _ := twoNodes(t, Config{})
	fired := 0
	ea.After(10*time.Millisecond, func() { fired++ })
	cancel := ea.After(20*time.Millisecond, func() { fired += 100 })
	cancel()
	net.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("fired=%d want 1", fired)
	}
	_ = ra
	if net.Now() != 10*time.Millisecond {
		t.Fatalf("clock=%v", net.Now())
	}
}

func TestFailedNodeDropsMessagesAndTimers(t *testing.T) {
	net, _, rb, ea, eb := twoNodes(t, Config{})
	timerRan := false
	eb.After(5*time.Millisecond, func() { timerRan = true })
	net.Fail("b")
	ea.Send("b", "dead letter")
	net.RunUntilIdle()
	if len(rb.got) != 0 {
		t.Fatalf("dead node received %v", rb.got)
	}
	if timerRan {
		t.Fatal("dead node timer ran")
	}
	if net.Dropped() != 1 {
		t.Fatalf("Dropped=%d", net.Dropped())
	}
}

func TestReviveRestoresDelivery(t *testing.T) {
	net, _, rb, ea, _ := twoNodes(t, Config{})
	net.Fail("b")
	ea.Send("b", "lost")
	net.RunUntilIdle()
	net.Revive("b")
	ea.Send("b", "found")
	net.RunUntilIdle()
	if len(rb.got) != 1 || rb.got[0] != "found" {
		t.Fatalf("got %v", rb.got)
	}
}

type sizedMsg struct{ n int }

func (s sizedMsg) WireSize() int { return s.n }

func TestTrafficAccounting(t *testing.T) {
	net, _, _, ea, _ := twoNodes(t, Config{})
	ea.Send("b", sizedMsg{n: 1000})
	ea.Send("b", "plain") // charged DefaultMessageSize
	net.RunUntilIdle()
	ctr := func(addr transport.Addr, name string) int64 { return net.MetricsOf(addr).Counter(name).Value() }
	if m, b := ctr("a", CtrMsgsOut), ctr("a", CtrBytesOut); m != 2 || b != 1000+transport.DefaultMessageSize {
		t.Fatalf("a out: %d msgs, %d bytes", m, b)
	}
	if m, b := ctr("b", CtrMsgsIn), ctr("b", CtrBytesIn); m != 2 || b != 1000+transport.DefaultMessageSize {
		t.Fatalf("b in: %d msgs, %d bytes", m, b)
	}
	net.ResetTraffic()
	for _, name := range []string{CtrMsgsIn, CtrMsgsOut, CtrBytesIn, CtrBytesOut} {
		if got := ctr("a", name); got != 0 {
			t.Fatalf("reset left %s = %d", name, got)
		}
	}
}

func TestRunDeadlineStopsClock(t *testing.T) {
	net, _, _, ea, _ := twoNodes(t, Config{})
	ran := false
	ea.After(50*time.Millisecond, func() { ran = true })
	net.Run(20 * time.Millisecond)
	if ran {
		t.Fatal("event past deadline ran")
	}
	if net.Now() != 20*time.Millisecond {
		t.Fatalf("clock=%v", net.Now())
	}
	net.Run(60 * time.Millisecond)
	if !ran {
		t.Fatal("event did not run after extending deadline")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		net := New(Config{Seed: 7})
		net.AddLinkRule(LinkRule{Drop: 0.2})
		r := &recorder{}
		net.AddNode("sink", func(e transport.Env) transport.Handler { r.env = e; return r })
		src := net.AddNode("src", func(e transport.Env) transport.Handler { return transport.HandlerFunc(func(transport.Addr, any) {}) })
		for i := 0; i < 100; i++ {
			src.Send("sink", i)
		}
		net.RunUntilIdle()
		return append([]time.Duration(nil), r.at...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged in count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestAddrsSortedAndCount(t *testing.T) {
	net := New(Config{})
	for _, a := range []transport.Addr{"c", "a", "b"} {
		net.AddNode(a, func(e transport.Env) transport.Handler {
			return transport.HandlerFunc(func(transport.Addr, any) {})
		})
	}
	got := net.Addrs()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("addrs %v", got)
	}
	if net.NumNodes() != 3 {
		t.Fatalf("NumNodes=%d", net.NumNodes())
	}
}

func TestSelfAndRandIndependentPerNode(t *testing.T) {
	net := New(Config{Seed: 1})
	var ea, eb transport.Env
	ea = net.AddNode("a", func(e transport.Env) transport.Handler {
		return transport.HandlerFunc(func(transport.Addr, any) {})
	})
	eb = net.AddNode("b", func(e transport.Env) transport.Handler {
		return transport.HandlerFunc(func(transport.Addr, any) {})
	})
	if ea.Self() != "a" || eb.Self() != "b" {
		t.Fatal("Self mismatch")
	}
	// Different nodes should have decorrelated random streams.
	same := 0
	for i := 0; i < 16; i++ {
		if ea.Rand().Uint64() == eb.Rand().Uint64() {
			same++
		}
	}
	if same == 16 {
		t.Fatal("node RNGs identical")
	}
}
