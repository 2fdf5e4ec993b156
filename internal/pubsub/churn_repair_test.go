package pubsub

import (
	"testing"
	"time"

	"totoro/internal/ids"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/transport"
)

// TestRepairUnderChurnRedeliversBroadcast drives the keep-alive repair path
// with a churn phase instead of a single surgical failure: an interior
// parent is killed while background churn keeps removing other nodes, and
// every surviving subscriber must re-graft onto the tree (OnRepair fires)
// and deliver the next Publish exactly as if nothing had happened.
func TestRepairUnderChurnRedeliversBroadcast(t *testing.T) {
	rcfg := ring.Config{B: 4, ReliableHops: true, HopAckTimeout: 50 * time.Millisecond}
	pcfg := Config{
		KeepAliveInterval: 50 * time.Millisecond,
		KeepAliveTimeout:  150 * time.Millisecond,
	}
	f := newForest(t, 250, rcfg, pcfg, 12)
	topic := ids.Hash("app-churn-repair")

	delivered := make(map[transport.Addr]int)
	repairs := 0
	for _, s := range f.stacks {
		addr := s.ring.Self().Addr
		s.ps.SetHandlers(Handlers{
			OnDeliver: func(_ ids.ID, _ any, _ int, subscriber bool) {
				if subscriber {
					delivered[addr]++
				}
			},
			OnRepair: func(ids.ID) { repairs++ },
		})
	}

	subs := map[transport.Addr]*stack{}
	for len(subs) < 60 {
		s := f.stacks[f.rng.Intn(len(f.stacks))]
		subs[s.ring.Self().Addr] = s
		s.ps.Subscribe(topic)
	}
	f.net.Run(500 * time.Millisecond)
	var subList []*stack
	for _, s := range subs {
		subList = append(subList, s)
	}
	root := f.verifyTree(t, topic, subList)

	// Pick the interior parent to kill: prefer a pure forwarder with
	// children; fall back to any non-root parent.
	var victim *stack
	for _, s := range f.attachedMembers(topic) {
		info, _ := s.ps.TreeInfo(topic)
		if info.IsRoot || len(info.Children) == 0 {
			continue
		}
		if !info.Subscribed {
			victim = s
			break
		}
		if victim == nil {
			victim = s
		}
	}
	if victim == nil {
		t.Fatal("no interior parent in a 60-subscriber tree")
	}
	victimAddr := victim.ring.Self().Addr
	delete(subs, victimAddr)

	// Churn may kill anything except the root, the subscribers we assert
	// on, and the victim (we kill that one ourselves).
	exempt := []transport.Addr{root.ring.Self().Addr, victimAddr}
	for a := range subs {
		exempt = append(exempt, a)
	}
	nm, err := f.net.StartNemesis(simnet.NemesisConfig{
		Seed:   99,
		Exempt: exempt,
		Phases: []simnet.Phase{{
			Kind: "churn", Start: f.net.Now(), Dur: 2 * time.Second,
			Params: map[string]string{"mtbf": "200ms"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	f.net.Fail(victimAddr)
	f.net.Run(f.net.Now() + 2*time.Second) // repair plays out under churn
	if nm.Kills == 0 {
		t.Fatal("churn injected no background failures")
	}
	f.net.Run(f.net.Now() + 2*time.Second) // quiesce: quarantines expire, joins settle

	if repairs == 0 {
		t.Fatal("no OnRepair upcall despite a killed parent")
	}

	// Every subscriber must sit on a live parent chain ending at the root.
	for a, s := range subs {
		cur := s
		for hops := 0; ; hops++ {
			info, ok := cur.ps.TreeInfo(topic)
			if !ok || !info.Attached {
				t.Fatalf("subscriber %s orphaned after churn", a)
			}
			if info.IsRoot {
				break
			}
			if !f.net.Alive(info.Parent.Addr) {
				t.Fatalf("subscriber %s routes through dead parent %s", a, info.Parent.Addr)
			}
			if hops > len(f.stacks) {
				t.Fatal("cycle in repaired tree")
			}
			cur = f.byAddr[info.Parent.Addr]
		}
	}

	// The next broadcast reaches every surviving subscriber.
	root.ps.Publish(topic, "model-after-churn")
	f.net.Run(f.net.Now() + 2*time.Second)
	for a := range subs {
		if delivered[a] < 1 {
			t.Fatalf("subscriber %s missed the post-churn broadcast", a)
		}
	}
}
