package simnet

import (
	"math/rand"
	"time"

	"totoro/internal/transport"
)

// ChurnConfig parameterizes a seeded Poisson fail/revive process — the
// fault-injection harness behind the paper's failure-recovery experiments
// (§7.5): nodes crash at random, stay down for a random time, and come
// back as stale-state zombies that the protocols must fold back in.
type ChurnConfig struct {
	// Seed drives all churn randomness, independent of the network seed,
	// so fault schedules are reproducible and composable.
	Seed int64
	// FailEvery is the mean time between failure events across the whole
	// eligible population (exponential inter-arrival times — a Poisson
	// process). Zero disables the process entirely.
	FailEvery time.Duration
	// Downtime is the mean time a failed node stays down before it is
	// revived (exponential). Zero means failed nodes never revive.
	Downtime time.Duration
	// Exempt lists nodes the process never kills (the kill-exempt set:
	// experiments typically protect the workload's data holders so churn
	// measures protocol recovery, not data loss).
	Exempt []transport.Addr
	// Restart makes downed nodes come back via Network.Restart instead of
	// Revive: the process reboots with amnesia — a rebuilt protocol stack,
	// dead timers, only durable-store state surviving — rather than as a
	// stale-memory zombie. This is the harness for crash-recovery
	// experiments: kill–revive tests protocol tolerance of stale peers,
	// kill–restart tests recovery from the write-ahead log.
	Restart bool
	// OnFail/OnRevive/OnRestart observe every churn event (logging,
	// assertions). OnRestart fires (instead of OnRevive) when Restart mode
	// reboots a node, after the stack has been rebuilt.
	OnFail    func(addr transport.Addr, now time.Duration)
	OnRevive  func(addr transport.Addr, now time.Duration)
	OnRestart func(addr transport.Addr, now time.Duration)
}

// Churn is a running churn process on a Network. It shares the network's
// event loop, so fail/revive events interleave deterministically with
// protocol traffic.
type Churn struct {
	net    *Network
	cfg    ChurnConfig
	rng    *rand.Rand
	exempt map[transport.Addr]bool
	// downBy tracks the nodes this process killed (explicit Fail calls by
	// the experiment are not revived by the scheduler).
	downBy  map[transport.Addr]bool
	stopped bool

	// Fails, Revives, and Restarts count the events injected so far.
	Fails, Revives, Restarts int
}

// StartChurn launches a churn process on the network. The process runs on
// the simulated clock until Stop is called; it never kills exempt nodes
// and never kills a node it already holds down.
func (n *Network) StartChurn(cfg ChurnConfig) *Churn {
	c := &Churn{
		net:    n,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		exempt: make(map[transport.Addr]bool, len(cfg.Exempt)),
		downBy: make(map[transport.Addr]bool),
	}
	for _, a := range cfg.Exempt {
		c.exempt[a] = true
	}
	if cfg.FailEvery > 0 {
		c.scheduleNextFail()
	}
	return c
}

// Stop halts the process: no further failures are injected, and pending
// revives of already-failed nodes are cancelled (they stay down).
func (c *Churn) Stop() { c.stopped = true }

// Down reports how many nodes the process currently holds down.
func (c *Churn) Down() int { return len(c.downBy) }

func (c *Churn) scheduleNextFail() {
	d := time.Duration(c.rng.ExpFloat64() * float64(c.cfg.FailEvery))
	c.net.timer(d, nil, func() {
		if c.stopped {
			return
		}
		c.failOne()
		c.scheduleNextFail()
	})
}

// failOne kills one uniformly chosen eligible node. Candidates are taken
// from the sorted address list so the victim sequence depends only on the
// churn seed and the set of live nodes, never on map iteration order.
func (c *Churn) failOne() {
	var candidates []transport.Addr
	for _, a := range c.net.Addrs() {
		if c.exempt[a] || !c.net.Alive(a) {
			continue
		}
		candidates = append(candidates, a)
	}
	if len(candidates) == 0 {
		return
	}
	victim := candidates[c.rng.Intn(len(candidates))]
	c.net.Fail(victim)
	c.downBy[victim] = true
	c.Fails++
	if c.cfg.OnFail != nil {
		c.cfg.OnFail(victim, c.net.Now())
	}
	if c.cfg.Downtime > 0 {
		down := time.Duration(c.rng.ExpFloat64() * float64(c.cfg.Downtime))
		c.net.timer(down, nil, func() {
			if c.stopped || !c.downBy[victim] {
				return
			}
			delete(c.downBy, victim)
			if c.cfg.Restart {
				c.net.Restart(victim)
				c.Restarts++
				if c.cfg.OnRestart != nil {
					c.cfg.OnRestart(victim, c.net.Now())
				}
				return
			}
			c.net.Revive(victim)
			c.Revives++
			if c.cfg.OnRevive != nil {
				c.cfg.OnRevive(victim, c.net.Now())
			}
		})
	}
}
