package transport_test

// External test package: transport cannot import the simulator these tests
// run Every on.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"totoro/internal/simnet"
	"totoro/internal/transport"
)

const period = 10 * time.Millisecond

// oneNode returns a network holding one node that ignores its messages.
func oneNode() (*simnet.Network, transport.Env) {
	net := simnet.New(simnet.Config{Seed: 1})
	env := net.AddNode("a", func(transport.Env) transport.Handler {
		return transport.HandlerFunc(func(transport.Addr, any) {})
	})
	return net, env
}

func TestEveryRunsEachPeriod(t *testing.T) {
	net, env := oneNode()
	var at []time.Duration
	transport.Every(env, period, func() bool {
		at = append(at, env.Now())
		return true
	})
	net.Run(3*period + period/2)
	if want := []time.Duration{period, 2 * period, 3 * period}; !slices.Equal(at, want) {
		t.Fatalf("ran at %v, want %v", at, want)
	}
}

func TestEveryStopsWhenFnReturnsFalse(t *testing.T) {
	net, env := oneNode()
	runs := 0
	transport.Every(env, period, func() bool {
		runs++
		return runs < 2
	})
	net.Run(time.Second)
	if runs != 2 || net.Pending() != 0 {
		t.Fatalf("%d runs and %d events pending, want 2 and none", runs, net.Pending())
	}
}

func TestEveryStop(t *testing.T) {
	t.Run("before the first run, twice", func(t *testing.T) {
		net, env := oneNode()
		runs := 0
		stop := transport.Every(env, period, func() bool { runs++; return true })
		stop()
		stop()
		net.Run(time.Second)
		if runs != 0 || net.Pending() != 0 {
			t.Fatalf("%d runs and %d events pending after stop, want none", runs, net.Pending())
		}
	})
	t.Run("between runs", func(t *testing.T) {
		net, env := oneNode()
		runs := 0
		stop := transport.Every(env, period, func() bool { runs++; return true })
		net.Run(period)
		stop()
		net.Run(time.Second)
		if runs != 1 || net.Pending() != 0 {
			t.Fatalf("%d runs and %d events pending, want 1 and none", runs, net.Pending())
		}
	})
	t.Run("from inside fn", func(t *testing.T) {
		net, env := oneNode()
		runs := 0
		var stop func()
		stop = transport.Every(env, period, func() bool {
			runs++
			if runs == 2 {
				stop()
			}
			return true
		})
		net.Run(time.Second)
		if runs != 2 || net.Pending() != 0 {
			t.Fatalf("%d runs and %d events pending, want 2 and none", runs, net.Pending())
		}
	})
}

// TestEveryMatchesHandWrittenLoop runs node a's loop once through Every and
// once as the hand-written After loop Every replaces, each time beside node
// b's own loop and a message exchange that land on the same instants. Both
// runs must log the same events at the same virtual times in the same order,
// and execute the same number of events.
func TestEveryMatchesHandWrittenLoop(t *testing.T) {
	run := func(every bool) []string {
		net := simnet.New(simnet.Config{Seed: 1, Latency: simnet.ConstLatency(period)})
		var log []string
		note := func(env transport.Env, what any) {
			log = append(log, fmt.Sprintf("%v %s %v", env.Now(), env.Self(), what))
		}
		var a, b transport.Env
		a = net.AddNode("a", func(transport.Env) transport.Handler {
			return transport.HandlerFunc(func(_ transport.Addr, msg any) { note(a, msg) })
		})
		b = net.AddNode("b", func(transport.Env) transport.Handler {
			return transport.HandlerFunc(func(from transport.Addr, msg any) {
				note(b, msg)
				b.Send(from, fmt.Sprint("re ", msg))
			})
		})
		// b's loop, armed first, fires on every one of a's instants too.
		var bLoop func()
		bLoop = func() {
			note(b, "b tick")
			if b.Now() < 8*period {
				b.After(period/2, bLoop)
			}
		}
		b.After(period, bLoop)

		runs := 0
		tick := func() bool {
			runs++
			note(a, "a tick")
			a.Send("b", runs)
			return runs < 5
		}
		if every {
			transport.Every(a, period, tick)
		} else {
			var aLoop func()
			aLoop = func() {
				if tick() {
					a.After(period, aLoop)
				}
			}
			a.After(period, aLoop)
		}
		return append(log, fmt.Sprint(net.Run(time.Second), " events"))
	}
	hand, every := run(false), run(true)
	if !slices.Equal(hand, every) {
		t.Fatalf("hand-written loop:\n%v\nEvery:\n%v", hand, every)
	}
	if len(hand) < 20 {
		t.Fatalf("only %d log lines: the runs did too little to compare", len(hand))
	}
}
