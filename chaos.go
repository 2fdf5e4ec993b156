package totoro

import (
	"fmt"
	"time"

	"totoro/internal/store"
	"totoro/internal/transport"
)

// Chaos is the always-on invariant checker of the chaos harness: it
// couples a Cluster to simnet's fault layer, asserting the engine's
// safety contract after every virtual-time step (the network runs
// registered invariants whenever the clock advances, and once more at
// quiesce via CheckInvariants). A violation fails the run through
// simnet's violation machinery, which captures the seed and the tail of
// the merged trace ring for deterministic replay.
//
// The checks are scoped to what the protocol actually promises. Totoro
// has no consensus layer, so two masters for one app is legal *during* a
// partition; the invariant is that they reconcile by epoch — promptly,
// once they can talk — and that the loser's divergent state is
// discarded, never merged. Checks that would fire on legal transients
// are therefore reachability-scoped and grace-bounded, while the
// per-lineage checks (epoch monotonicity, committed-round progress,
// participant accounting, replica staleness) are exact. The checker reads
// each engine's mastership state (mastership.State) directly.
//
// Install it after Deploy and before training or fault injection:
//
//	chaos := cluster.StartChaos(ChaosConfig{})
//	... StartNemesis / Train ...
//	cluster.Net.CheckInvariants() // quiesce check
type Chaos struct {
	c *Cluster

	// epochs records, per engine incarnation and app, the highest
	// mastership epoch that engine has held or witnessed (master or
	// replica role). Parallel to c.Engines; install resets a slot, because
	// a crash-restart rebuilds the engine and its recovered view
	// legitimately restarts from whatever its journal's clean prefix holds.
	epochs []map[AppID]int
	// lastCommit tracks the last committed round per master lineage
	// (committer address + app + epoch): commits must strictly advance.
	lastCommit map[commitKey]int
	// maxAcked is, per app and indexed by epoch, the highest round any
	// master acknowledged (journaled and replicated); no replica may hold
	// more.
	maxAcked map[AppID][]int
	// eligible is the number of deployed workers per app; no commit may
	// merge more participants than that.
	eligible map[AppID]int
	// dualSince records when two mutually-reachable live masters for an
	// app were first observed (cleared when the condition clears).
	dualSince map[AppID]time.Duration
	pending   error

	// Scratch for check, which runs on every virtual tick and must not
	// feed the GC: the sorted app IDs checkDualMasters visits, and this
	// tick's live unfinished masters in engine-index order.
	appScratch []AppID
	live       []liveMaster

	// Commits counts observed round commits (test instrumentation).
	Commits int
}

type liveMaster struct {
	app AppID
	e   *Engine
}

type commitKey struct {
	by    transport.Addr
	app   AppID
	epoch int
}

// ChaosConfig parameterizes the checker. It has no fields left; callers
// pass ChaosConfig{}.
type ChaosConfig struct{}

// dualMasterGrace bounds how long two live, mutually-reachable masters for
// one app may coexist before the checker declares the split-brain
// unreconciled. The window covers ring maintenance re-merging leaf sets
// after a heal plus one replication round-trip — the path by which the
// losing master learns it lost.
const dualMasterGrace = 3 * time.Second

// StartChaos installs the invariant checker over the cluster: hooks on
// every engine (re-installed on crash-restart rebuilds) and a check
// function registered with the network's step loop.
func (c *Cluster) StartChaos(ChaosConfig) *Chaos {
	ch := &Chaos{
		c:          c,
		epochs:     make([]map[AppID]int, len(c.Engines)),
		lastCommit: make(map[commitKey]int),
		maxAcked:   make(map[AppID][]int),
		eligible:   make(map[AppID]int),
		dualSince:  make(map[AppID]time.Duration),
	}
	for i := range c.shards {
		for _, app := range sortedApps(c.shards[i]) {
			ch.eligible[app]++
		}
	}
	for i, e := range c.Engines {
		ch.install(i, e)
	}
	c.onBuild = ch.install
	c.Net.AddInvariant(ch.check)
	return ch
}

// install wires one engine (initial or rebuilt after Restart) into the
// checker.
func (ch *Chaos) install(i int, e *Engine) {
	ch.epochs[i] = make(map[AppID]int)
	e.AckHook = func(app AppID, epoch, round, participants int, commit bool) {
		ch.observe(e, app, epoch, round, participants, commit)
	}
}

// DiskFault adapts the cluster's faulty stores to a nemesis schedule's
// disk phases: pass the result as NemesisConfig.OnDisk. Requires
// ClusterConfig.FaultyStores.
func (ch *Chaos) DiskFault(kind store.FaultKind) func(addr transport.Addr, active bool) {
	return func(addr transport.Addr, active bool) {
		i := ch.c.EngineIndex(addr)
		if i < 0 || ch.c.faulty[i] == nil {
			return
		}
		if active {
			ch.c.faulty[i].Fail(kind)
		} else {
			ch.c.faulty[i].Heal()
		}
	}
}

// observe is the synchronous per-ack hook: it runs on the engine's event
// loop at the exact moment state is acknowledged, so the commit history
// it builds is free of polling races.
func (ch *Chaos) observe(e *Engine, app AppID, epoch, round, participants int, commit bool) {
	acked := ch.maxAcked[app]
	for len(acked) <= epoch {
		acked = append(acked, 0)
	}
	acked[epoch] = max(acked[epoch], round)
	ch.maxAcked[app] = acked
	if !commit {
		return
	}
	ch.Commits++
	addr := e.Self().Addr
	ck := commitKey{addr, app, epoch}
	if last, seen := ch.lastCommit[ck]; seen && round <= last {
		ch.fail(fmt.Errorf("app %s: master %s committed round %d at epoch %d after already committing round %d",
			app.Short(), addr, round, epoch, last))
		return
	}
	ch.lastCommit[ck] = round
	if n := ch.eligible[app]; n > 0 && participants > n {
		ch.fail(fmt.Errorf("app %s: round %d (epoch %d, master %s) merged %d participants but only %d workers are deployed — a client update was double-counted",
			app.Short(), round, epoch, addr, participants, n))
	}
}

func (ch *Chaos) fail(err error) {
	if ch.pending == nil {
		ch.pending = err
	}
}

// check is the invariant function the network runs on every step that
// advances virtual time, and at quiesce. It polls every engine on every
// tick — an engine never announces a role change, because an unannounced
// one is what the checker exists to catch — but an engine that holds no
// role costs the two length reads and nothing else. Iteration follows the
// engine index and each engine's roles, which are in AppID order, so a
// violation (and its message) is deterministic for a given seed. A tick
// without a violation allocates nothing (the violation messages are built
// in cold helpers).
//
//vet:noalloc
func (ch *Chaos) check() error {
	if ch.pending != nil {
		return ch.pending
	}
	ch.live = ch.live[:0]
	for i, e := range ch.c.Engines {
		if len(e.roles) == 0 {
			continue
		}
		if err := ch.checkEngine(e, ch.epochs[i]); err != nil {
			return err
		}
	}
	return ch.checkDualMasters()
}

// checkEngine asserts per-engine invariants — mastership epochs never
// regress within one engine incarnation (em, created by install), and no
// held replica is ahead of what its master ever acknowledged — and
// collects the engine's live unfinished masters for checkDualMasters.
//
//vet:noalloc
func (ch *Chaos) checkEngine(e *Engine, em map[AppID]int) error {
	alive := ch.c.Net.Up(e.env)
	for _, x := range e.roles {
		m := x.r.Master
		if m == nil {
			continue
		}
		if err := ch.noteEpoch(e, em, x.app, m.Epoch, "master"); err != nil {
			return err
		}
		if alive && !m.Done {
			ch.live = append(ch.live, liveMaster{x.app, e})
		}
	}
	for _, x := range e.roles {
		rep := x.r.Replica
		if rep == nil {
			continue
		}
		if err := ch.noteEpoch(e, em, x.app, rep.Epoch, "replica"); err != nil {
			return err
		}
		// A replica's round must have been acked by some lineage at an
		// epoch ≤ the replica's: promotion inherits the predecessor's
		// committed round into the successor epoch's image, so the bound
		// is cumulative across epochs, not per-epoch.
		if most := ch.ackedThrough(x.app, rep.Epoch); rep.Round > most {
			return errReplicaAhead(x.app, e.Self().Addr, rep.Round, rep.Epoch, most)
		}
	}
	return nil
}

//vet:noalloc cold
func errReplicaAhead(app AppID, at transport.Addr, round, epoch, max int) error {
	return fmt.Errorf("app %s: %s holds replica round %d at epoch %d but no master lineage through that epoch acked past round %d — replica ahead of master acks",
		app.Short(), at, round, epoch, max)
}

// ackedThrough returns the highest round any master lineage acked for app
// at any epoch ≤ through, 0 if none.
//
//vet:noalloc
func (ch *Chaos) ackedThrough(app AppID, through int) int {
	acked := ch.maxAcked[app]
	most := 0
	for _, r := range acked[:min(through+1, len(acked))] {
		most = max(most, r)
	}
	return most
}

//vet:noalloc
func (ch *Chaos) noteEpoch(e *Engine, em map[AppID]int, app AppID, epoch int, role string) error {
	prev, seen := em[app]
	if seen && epoch < prev {
		return errEpochRegressed(app, e.Self().Addr, role, epoch, prev)
	}
	if epoch > prev {
		em[app] = epoch
	}
	return nil
}

//vet:noalloc cold
func errEpochRegressed(app AppID, at transport.Addr, role string, epoch, prev int) error {
	return fmt.Errorf("app %s: epoch regressed on %s: %s at epoch %d after holding epoch %d",
		app.Short(), at, role, epoch, prev)
}

// checkDualMasters asserts the reconciliation invariant: two live,
// unfinished masters for one app that can talk to each other must
// resolve by epoch within the grace window. (Split-brain across a
// partition is legal; lingering split-brain after a heal is the bug this
// harness exists to catch.)
//
//vet:noalloc
func (ch *Chaos) checkDualMasters() error {
	live := ch.live // this tick's, engine-index order
	if len(live) < 2 && len(ch.dualSince) == 0 {
		return nil // no pair to find and no clock to clear
	}
	now := ch.c.Net.Now()
	ch.appScratch = appendSortedApps(ch.appScratch[:0], ch.c.apps)
	for _, app := range ch.appScratch {
		var a, b *Engine
		for x := 0; x < len(live) && a == nil; x++ {
			if live[x].app != app {
				continue
			}
			for y := x + 1; y < len(live); y++ {
				if live[y].app == app && ch.c.Net.Reachable(live[x].e.Self().Addr, live[y].e.Self().Addr) {
					a, b = live[x].e, live[y].e
					break
				}
			}
		}
		if a == nil {
			delete(ch.dualSince, app)
			continue
		}
		since, seen := ch.dualSince[app]
		if !seen {
			ch.dualSince[app] = now
			continue
		}
		if now-since > dualMasterGrace {
			return errSplitBrain(app, a, b, now-since)
		}
	}
	return nil
}

//vet:noalloc cold
func errSplitBrain(app AppID, a, b *Engine, lasted time.Duration) error {
	return fmt.Errorf("app %s: unreconciled split-brain: masters %s (epoch %d) and %s (epoch %d) mutually reachable for %v without resolving",
		app.Short(), a.Self().Addr, a.master(app).Epoch, b.Self().Addr, b.master(app).Epoch, lasted)
}
