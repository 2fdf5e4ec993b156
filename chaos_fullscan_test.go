package totoro

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"totoro/internal/simnet"
)

// fullScan is the per-tick checker as it stood before check learned to do
// work only for engines that hold a role: every engine's epoch map looked
// up by pointer and every app's role looked up on every tick, and every
// engine probed once per app for a live master. It is the oracle
// TestCheckMatchesFullScan holds the real checker to. The five methods are
// the old ones, reading roles through findRole and acks from the checker's
// per-epoch slices — the fields below shadow the embedded Chaos's, so it
// keeps its own epochs and dualSince and shares what the ack hook records
// (maxAcked, pending), the configuration and the cold helpers.
type fullScan struct {
	*Chaos
	epochs        map[*Engine]map[AppID]int
	dualSince     map[AppID]time.Duration
	appScratch    []AppID
	masterScratch []*Engine
}

// startFullScan builds the oracle over ch's cluster, as StartChaos and
// install built the checker: an epoch map per engine, one more for every
// engine a crash-restart builds.
func startFullScan(ch *Chaos) *fullScan {
	o := &fullScan{
		Chaos:     ch,
		epochs:    make(map[*Engine]map[AppID]int),
		dualSince: make(map[AppID]time.Duration),
	}
	for _, e := range ch.c.Engines {
		o.epochs[e] = make(map[AppID]int)
	}
	install := ch.c.onBuild
	ch.c.onBuild = func(i int, e *Engine) {
		install(i, e)
		o.epochs[e] = make(map[AppID]int)
	}
	return o
}

func (ch *fullScan) check() error {
	if ch.pending != nil {
		return ch.pending
	}
	ch.appScratch = appendSortedApps(ch.appScratch[:0], ch.c.apps)
	for i := range ch.c.Engines {
		if err := ch.checkEngine(ch.c.Engines[i]); err != nil {
			return err
		}
	}
	return ch.checkDualMasters()
}

func (ch *fullScan) checkEngine(e *Engine) error {
	em := ch.epochs[e] // created by install
	for _, app := range ch.appScratch {
		if r := e.findRole(app); r != nil && r.Master != nil {
			if err := ch.noteEpoch(e, em, app, r.Master.Epoch, "master"); err != nil {
				return err
			}
		}
	}
	for _, app := range ch.appScratch {
		r := e.findRole(app)
		if r == nil || r.Replica == nil {
			continue
		}
		rep := r.Replica
		if err := ch.noteEpoch(e, em, app, rep.Epoch, "replica"); err != nil {
			return err
		}
		// A replica's round must have been acked by some lineage at an
		// epoch ≤ the replica's: promotion inherits the predecessor's
		// committed round into the successor epoch's image, so the bound
		// is cumulative across epochs, not per-epoch.
		if max, acked := ch.ackedThrough(app, rep.Epoch); rep.Round > max || (!acked && rep.Round > 0) {
			return errReplicaAhead(app, e.Self().Addr, rep.Round, rep.Epoch, max)
		}
	}
	return nil
}

// ackedThrough returns the highest round acked for app at any epoch ≤
// through, and whether any epoch saw a round past 0 acked.
func (ch *fullScan) ackedThrough(app AppID, through int) (int, bool) {
	max, acked := 0, false
	rounds := ch.maxAcked[app]
	for ep := 0; ep <= through && ep < len(rounds); ep++ {
		if r := rounds[ep]; r > 0 {
			acked = true
			if r > max {
				max = r
			}
		}
	}
	return max, acked
}

func (ch *fullScan) noteEpoch(e *Engine, em map[AppID]int, app AppID, epoch int, role string) error {
	if prev, seen := em[app]; seen && epoch < prev {
		return errEpochRegressed(app, e.Self().Addr, role, epoch, prev)
	}
	if epoch > em[app] {
		em[app] = epoch
	}
	return nil
}

func (ch *fullScan) checkDualMasters() error {
	now := ch.c.Net.Now()
	ch.appScratch = appendSortedApps(ch.appScratch[:0], ch.c.apps)
	for _, app := range ch.appScratch {
		masters := ch.masterScratch[:0]
		for i := range ch.c.Engines {
			e := ch.c.Engines[i]
			if m := e.master(app); m != nil && !m.Done && ch.c.Net.Alive(e.Self().Addr) {
				masters = append(masters, e)
			}
		}
		ch.masterScratch = masters
		var a, b *Engine
		for x := 0; x < len(masters) && a == nil; x++ {
			for y := x + 1; y < len(masters); y++ {
				if ch.c.Net.Reachable(masters[x].Self().Addr, masters[y].Self().Addr) {
					a, b = masters[x], masters[y]
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

// TestCheckMatchesFullScan runs the checker and the full scan it replaced
// side by side under the nine-phase schedule on fleet seeds 1–40: on every
// tick both must return the same error or none, at the end both must hold
// the same epochs and split-brain clocks, and the seeds on which the engine
// does violate an invariant (ROADMAP item 1's open failure classes) must
// report the text and the virtual time they reported before the change.
func TestCheckMatchesFullScan(t *testing.T) {
	type verdict struct {
		at   time.Duration
		text string
	}
	known := map[int64]verdict{
		1:  {7389271457, "app 17d7fda2: round 1 (epoch 2, master n10) merged 17 participants but only 10 workers are deployed — a client update was double-counted"},
		2:  {7554640180, "app 17d7fda2: round 1 (epoch 2, master n26) merged 15 participants but only 10 workers are deployed — a client update was double-counted"},
		6:  {7439676595, "app 17d7fda2: round 1 (epoch 2, master n30) merged 14 participants but only 10 workers are deployed — a client update was double-counted"},
		11: {7386929115, "app 17d7fda2: round 1 (epoch 2, master n20) merged 16 participants but only 10 workers are deployed — a client update was double-counted"},
		19: {6005030517, "app 17d7fda2: unreconciled split-brain: masters n3 (epoch 0) and n45 (epoch 1) mutually reachable for 3.005030517s without resolving"},
		34: {6050005089, "app 17d7fda2: round 3 (epoch 2, master n46) merged 11 participants but only 10 workers are deployed — a client update was double-counted"},
	}
	last := int64(40)
	if testing.Short() {
		last = 12
	}
	for seed := int64(1); seed <= last; seed++ {
		var oracle *fullScan
		cfg := chaosConfig(seed, 2)
		// The network stops at the checker's error, before the oracle's
		// turn as second invariant: the oracle's verdict on that tick is
		// taken here.
		cfg.OnViolation = func(v *simnet.InvariantViolation) {
			if want := oracle.check(); want == nil || want.Error() != v.Err.Error() {
				t.Errorf("seed %d, t=%v: the checker reports %q, the full scan %v", seed, v.At, v.Err, want)
			}
		}
		c := NewCluster(cfg)
		id, ch, _ := startChaosOn(t, c, seed, chaosSpec, chaosRounds)
		oracle = startFullScan(ch)
		c.Net.AddInvariant(func() error {
			if err := oracle.check(); err != nil && !t.Failed() {
				t.Errorf("seed %d, t=%v: the full scan reports %q, the checker nothing", seed, c.Net.Now(), err)
			}
			return nil
		})
		c.TrainUntil(c.Net.Now()+10*time.Minute, id)
		c.Net.CheckInvariants()

		for i, e := range c.Engines {
			if !maps.Equal(ch.epochs[i], oracle.epochs[e]) {
				t.Errorf("seed %d: %s: checker holds epochs %v, full scan %v", seed, e.Self().Addr, ch.epochs[i], oracle.epochs[e])
			}
		}
		if !maps.Equal(ch.dualSince, oracle.dualSince) {
			t.Errorf("seed %d: checker holds split-brain clocks %v, full scan %v", seed, ch.dualSince, oracle.dualSince)
		}
		want, violates := known[seed]
		switch v := c.Net.Violation(); {
		case v == nil && violates:
			t.Errorf("seed %d: no violation, want %q at %v", seed, want.text, want.at)
		case v != nil && (v.At != want.at || v.Err.Error() != want.text):
			t.Errorf("seed %d: violation %q at %v, want %q at %v", seed, v.Err, v.At, want.text, want.at)
		}
		if t.Failed() {
			return
		}
	}
}

// BenchmarkChaosCheck is one tick of the checker that finds nothing wrong,
// on the chaos fleet after a few clean rounds: one app's master and its
// replica holders among 60 and 600 engines.
func BenchmarkChaosCheck(b *testing.B) {
	for _, n := range []int{60, 600} {
		b.Run(fmt.Sprintf("engines=%d", n), func(b *testing.B) {
			const seed = 229
			cfg := chaosConfig(seed, 2)
			cfg.N = n
			c := NewCluster(cfg)
			app := testApps(1, seed)[0]
			app.MaxRounds = 3
			app.TargetAccuracy = 0.999
			id := c.DeployOnRandomNodes(app)
			ch := c.StartChaos(ChaosConfig{})
			c.TrainUntil(c.Net.Now()+10*time.Minute, id)
			if v := c.Net.Violation(); v != nil {
				b.Fatal(v)
			}
			for b.Loop() {
				if err := ch.check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
