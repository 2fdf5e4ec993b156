package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"totoro/internal/transport"
)

// chatter is one node of a busy isolated fleet. Every delivery is logged
// with the node's clock and may set off more traffic, drawn from the node's
// own rng: equal-size sends to several peers at one instant, zero-delay and
// short self timers (some cancelled), and one envelope fanned out to several
// children, which goes back to this node's pool after the last delivery.
type chatter struct {
	env    transport.Env
	rng    *rand.Rand
	peers  []transport.Addr
	budget int
	log    []string
	pool   []*fanout
	boxes  int // envelopes this node ever made
}

// fanout is a recycled envelope: one object delivered to pending children.
type fanout struct {
	owner   *chatter
	pending int
	body    string
}

func (f *fanout) Recycle() {
	if f.pending--; f.pending == 0 {
		f.body = "recycled"
		f.owner.pool = append(f.owner.pool, f)
	}
}

func (c *chatter) note(format string, args ...any) {
	c.log = append(c.log, fmt.Sprintf("%v ", c.env.Now())+fmt.Sprintf(format, args...))
}

func (c *chatter) Receive(from transport.Addr, msg any) {
	switch m := msg.(type) {
	case string:
		c.note("from %s %s", from, m)
	case *fanout:
		c.note("from %s fan %s", from, m.body)
	}
	c.act()
}

// act spends some of the node's budget on new traffic.
func (c *chatter) act() {
	if c.budget <= 0 {
		return
	}
	c.budget--
	switch c.rng.Intn(4) {
	case 0: // the same 16 bytes to three peers at one instant
		body := fmt.Sprintf("%16d", c.rng.Intn(1000))
		for i := 0; i < 3; i++ {
			c.env.Send(c.pick(), body)
		}
	case 1: // a zero-delay timer that cancels a later one, and one that stays
		later := c.env.After(time.Duration(c.rng.Intn(3))*time.Millisecond, func() { c.note("cancelled timer fired") })
		c.env.After(0, func() {
			later()
			c.note("tick")
			c.env.Send(c.pick(), "after tick")
		})
		c.env.After(0, func() { c.note("tock") })
	case 2: // one envelope to several children
		var f *fanout
		if k := len(c.pool); k > 0 {
			f, c.pool = c.pool[k-1], c.pool[:k-1]
		} else {
			f = &fanout{owner: c}
			c.boxes++
		}
		kids := 2 + c.rng.Intn(4)
		f.pending, f.body = kids, fmt.Sprintf("%s/%d", c.env.Self(), c.rng.Intn(1000))
		for i := 0; i < kids; i++ {
			c.env.Send(c.pick(), f)
		}
	default: // a short timer inside the window, then a send
		c.env.After(time.Duration(c.rng.Intn(4000))*time.Microsecond, func() {
			c.note("timer")
			c.env.Send(c.pick(), "timed")
		})
	}
}

func (c *chatter) pick() transport.Addr { return c.peers[c.rng.Intn(len(c.peers))] }

// chatterRun builds a seeded isolated fleet, kicks every node at time 0,
// runs it dry with every eligible window in parallel, and returns what it
// did: each node's log, the final clock and the event count, plus how many
// windows ran in parallel.
func chatterRun(seed int64, nodes int) (out string, windows int) {
	net := New(Config{Seed: seed, Latency: ConstLatency(5 * time.Millisecond), Isolated: true})
	net.force = true
	addrs := make([]transport.Addr, nodes)
	for i := range addrs {
		addrs[i] = transport.Addr(fmt.Sprintf("c%d", i))
	}
	fleet := make([]*chatter, nodes)
	for i, a := range addrs {
		c := &chatter{peers: addrs, budget: 40}
		fleet[i] = c
		net.AddNode(a, func(e transport.Env) transport.Handler {
			c.env, c.rng = e, e.Rand()
			return c
		})
		if i%3 == 0 {
			net.SetBandwidth(a, 1<<20) // an ingress queue: messages wait in the window
		}
	}
	for _, c := range fleet {
		c.act()
		c.act()
	}
	steps := net.RunUntilIdle()
	var b strings.Builder
	for i, c := range fleet {
		// How many envelopes a node made is not compared: a parallel window
		// recycles at its barrier, so a sender may make a new one where the
		// serial loop reused one. Every one of them must be back, though.
		b.WriteString(string(addrs[i]))
		if len(c.pool) != c.boxes {
			fmt.Fprintf(&b, " %d of %d envelopes back", len(c.pool), c.boxes)
		}
		b.WriteByte('\n')
		for _, line := range c.log {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "now=%v steps=%d delivered=%d", net.Now(), steps, net.Delivered())
	return b.String(), net.windows
}

// TestParallelDispatchMatchesSerial holds the parallel window runner to the
// serial loop: every node sees the same deliveries at the same times, and
// the clock and event count end equal, at 1, 2 and 4 lanes. The fleets make
// many events due at one instant — same-size sends made together, zero-delay
// timers and cancels, and envelopes fanned out to several children — whose
// order only the merge's seq numbering decides.
func TestParallelDispatchMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		seed  int64
		nodes int
	}{{1, 50}, {2, 200}, {3, 500}} {
		runtime.GOMAXPROCS(1)
		want, _ := chatterRun(c.seed, c.nodes)
		for _, p := range []int{2, 4} {
			runtime.GOMAXPROCS(p)
			got, windows := chatterRun(c.seed, c.nodes)
			if windows == 0 {
				t.Errorf("seed %d, %d nodes, %d lanes: no window ran in parallel", c.seed, c.nodes, p)
			}
			if got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				i := 0
				for i < min(len(gl), len(wl)) && gl[i] == wl[i] {
					i++
				}
				t.Errorf("seed %d, %d nodes, %d lanes: %d of %d log lines agree with the serial run; first difference at line %d:\n got %q\nwant %q",
					c.seed, c.nodes, p, i, len(wl), i, gl[min(i, len(gl)-1)], wl[min(i, len(wl)-1)])
			}
		}
	}
}

// A fleet that is not isolated, or that has a link rule installed, never
// runs a window in parallel.
func TestSerialUnlessIsolatedAndFaultFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, isolated := range []bool{false, true} {
		net := New(Config{Latency: ConstLatency(5 * time.Millisecond), Isolated: isolated})
		net.force = true
		if isolated {
			net.AddLinkRule(LinkRule{Delay: time.Millisecond})
		}
		envs := make([]transport.Env, 8)
		for i := range envs {
			envs[i] = net.AddNode(transport.Addr(fmt.Sprintf("s%d", i)), func(transport.Env) transport.Handler {
				return transport.HandlerFunc(func(transport.Addr, any) {})
			})
		}
		for _, from := range envs {
			for _, to := range envs {
				from.Send(to.Self(), "x")
			}
		}
		net.RunUntilIdle()
		if net.windows != 0 || net.Delivered() != 64 {
			t.Errorf("isolated=%v: %d parallel windows and %d deliveries; want 0 and 64", isolated, net.windows, net.Delivered())
		}
	}
}

// Inside a parallel window every node has its own clock: a handler that
// reads the network's panics, and its own Env.Now reads its event's time.
func TestNetworkNowPanicsInsideAParallelWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net := New(Config{Latency: ConstLatency(5 * time.Millisecond), Isolated: true})
	net.force = true
	var panics, wrong atomic.Int32
	envs := make([]transport.Env, 16)
	for i := range envs {
		envs[i] = net.AddNode(transport.Addr(fmt.Sprintf("p%d", i)), func(e transport.Env) transport.Handler {
			return transport.HandlerFunc(func(transport.Addr, any) {
				if e.Now() != 5*time.Millisecond {
					wrong.Add(1)
				}
				defer func() {
					if recover() != nil {
						panics.Add(1)
					}
				}()
				net.Now()
			})
		})
	}
	for _, e := range envs {
		e.Send(e.Self(), "x")
	}
	net.RunUntilIdle()
	if net.windows != 1 || panics.Load() != 16 || wrong.Load() != 0 || net.Now() != 5*time.Millisecond {
		t.Fatalf("%d parallel windows, %d of 16 handlers panicked on Network.Now, %d read a wrong Env.Now, final clock %v; want 1, 16, 0, 5ms",
			net.windows, panics.Load(), wrong.Load(), net.Now())
	}
}
