// totoro-sim is a simulation playground: it spins up a virtual edge
// deployment, launches concurrently training FL applications, and prints
// their trajectories.
//
//	totoro-sim -nodes 150 -apps 5 -clients 16 -fanout 16 -task speech
//
// With -nemesis the deployment trains under a composed, seeded fault
// schedule — partitions that heal, asymmetric link cuts, message
// drop/duplicate/reorder rules, stragglers, kill–restart, Poisson churn,
// disk faults — on the resilient stack (reliable routing hops, keep-alive
// tree repair, master-state replication, durable stores), while an
// always-on invariant checker asserts the engine's safety contract after
// every virtual-time step. A violation aborts the run with the seed for
// deterministic replay.
//
//	totoro-sim -nemesis 'partition@2s+3s/frac=0.3;dup@1s+8s/p=0.2;disk@4s+2s/n=1'
//
// -churn is shorthand for one more phase of that schedule, a Poisson
// fail/revive process that starts when training does; with -churn-restart
// downed nodes come back with amnesia and recover from their write-ahead
// logs instead of reviving with memory intact:
//
//	totoro-sim -churn 2s -churn-down 10s -churn-restart
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	totoro "totoro"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 120, "edge nodes in the deployment")
		apps      = flag.Int("apps", 3, "concurrently training applications")
		clients   = flag.Int("clients", 12, "workers per application")
		samples   = flag.Int("samples", 50, "training samples per worker")
		fanout    = flag.Int("fanout", 16, "tree fanout: 8, 16, or 32")
		task      = flag.String("task", "speech", "workload: speech or femnist")
		rounds    = flag.Int("rounds", 40, "maximum training rounds")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		churn     = flag.Duration("churn", 0, "shorthand: append a 'churn@now+4h/mtbf=<this>' phase to the -nemesis schedule (0 = none)")
		churnDown = flag.Duration("churn-down", 10*time.Second, "the -churn phase's down=: mean downtime before a failed node comes back")
		restart   = flag.Bool("churn-restart", false, "the -churn phase's restart=true: downed nodes crash-restart from their write-ahead log instead of reviving with memory intact")
		nemesis   = flag.String("nemesis", "", "composed fault schedule: 'kind@start+dur[/k=v,...][;...]' with kinds partition, oneway, isolate, drop, dup, reorder, delay, slow, kill, churn, disk (implies the resilient stack, durable stores, and always-on invariant checking)")
		metrics   = flag.Bool("metrics", false, "print the merged fleet telemetry snapshot after the run")
	)
	flag.Parse()

	var phases []simnet.Phase
	if *nemesis != "" {
		var err error
		if phases, err = simnet.ParseSchedule(*nemesis); err != nil {
			log.Fatalf("-nemesis: %v", err)
		}
	}
	if *restart && *churn <= 0 {
		log.Fatal("-churn-restart needs -churn")
	}
	faults := *churn > 0 || len(phases) > 0

	var b int
	switch *fanout {
	case 8:
		b = 3
	case 16:
		b = 4
	case 32:
		b = 5
	default:
		log.Fatalf("fanout must be 8, 16, or 32")
	}
	var t workload.Task
	switch *task {
	case "speech":
		t = workload.TaskSpeech
	case "femnist":
		t = workload.TaskFEMNIST
	default:
		log.Fatalf("task must be speech or femnist")
	}

	cfg := totoro.ClusterConfig{
		N:         *nodes,
		Seed:      *seed,
		Ring:      ring.Config{B: b},
		Bandwidth: 2 << 20,
	}
	if faults {
		// A fault schedule demands the resilient stack: per-hop acks with
		// rerouting, keep-alive repair of broken tree edges,
		// partial-aggregation deadlines, and replicated master state for
		// failover.
		cfg.Ring.ReliableHops = true
		cfg.Ring.HopAckTimeout = 150 * time.Millisecond
		cfg.PubSub = pubsub.Config{
			KeepAliveInterval: 100 * time.Millisecond,
			KeepAliveTimeout:  300 * time.Millisecond,
			AggTimeout:        2 * time.Second,
		}
		cfg.Replicas = 2
		cfg.ReplicaCheckInterval = 300 * time.Millisecond
		cfg.FailoverGrace = 500 * time.Millisecond
		// Kill and churn phases crash-restart their victims — failover
		// covers the downtime, the WAL covers the reboot — and disk phases
		// need fault-injecting stores to land on.
		cfg.Durable = true
		cfg.FaultyStores = true
		cfg.OnViolation = func(v *simnet.InvariantViolation) {
			fmt.Println()
			log.Fatalf("INVARIANT VIOLATION\n%v", v)
		}
	}
	cluster := totoro.NewCluster(cfg)
	ws := workload.MakeApps(workload.Params{
		Task:             t,
		Apps:             *apps,
		ClientsPerApp:    *clients,
		SamplesPerClient: *samples,
		Seed:             *seed,
	})
	// Place workers explicitly so a fault schedule can exempt them: the demo
	// is about infrastructure failures, not losing the training data.
	placer := rand.New(rand.NewSource(*seed))
	var appIDs []totoro.AppID
	var exempt []transport.Addr
	for _, a := range ws {
		a.MaxRounds = *rounds
		perm := placer.Perm(len(cluster.Engines))
		workers := perm[:len(a.Shards)]
		appIDs = append(appIDs, cluster.Deploy(a, workers[0], workers))
		for _, w := range workers {
			exempt = append(exempt, cluster.Engines[w].Self().Addr)
		}
	}
	fmt.Printf("deployment: %d nodes, fanout %d, %d apps x %d workers\n",
		*nodes, *fanout, *apps, *clients)
	for i, id := range appIDs {
		m := cluster.Master(id)
		exempt = append(exempt, m.Self().Addr)
		fmt.Printf("  %-12s master=%s appId=%s…\n", ws[i].Name, m.Self().Addr, id.Short())
	}

	var chaos *totoro.Chaos
	var nem *simnet.Nemesis
	if faults {
		cluster.StartMaintenance(500 * time.Millisecond)
		if *churn > 0 {
			// The phase starts now, not at zero: deployment advanced the clock.
			phases = append(phases, simnet.Phase{
				Kind: "churn", Start: cluster.Net.Now(), Dur: 4 * time.Hour,
				Params: map[string]string{
					"mtbf": churn.String(), "down": churnDown.String(), "restart": fmt.Sprint(*restart),
				},
			})
		}
		chaos = cluster.StartChaos(totoro.ChaosConfig{})
		var err error
		nem, err = cluster.Net.StartNemesis(simnet.NemesisConfig{
			Seed:   *seed + 2,
			Phases: phases,
			Exempt: exempt,
			OnDisk: chaos.DiskFault(store.FaultFsync),
			OnRestart: func(addr transport.Addr, now time.Duration) {
				cluster.Restarted(addr)
			},
			OnPhase: func(ph simnet.Phase, active bool, victims []transport.Addr) {
				state := "heal"
				if active {
					state = "inject"
				}
				fmt.Printf("  nemesis %-6s t=%-6s %s victims=%v\n",
					state, cluster.Net.Now(), ph.String(), victims)
			},
		})
		if err != nil {
			log.Fatalf("-nemesis: %v", err)
		}
		fmt.Printf("nemesis: %d phases, invariant checking on (workers and masters exempt from kills)\n", len(phases))
	}

	progress := cluster.Train(appIDs...)
	fmt.Println("\nresults:")
	for i, p := range progress {
		last := p.Points[len(p.Points)-1]
		fmt.Printf("  %-12s rounds=%3d acc=%.3f target=%.3f reached=%v done=%.1fs\n",
			ws[i].Name, last.Round, last.Accuracy, ws[i].TargetAccuracy, p.Reached, p.Done.Seconds())
	}
	if nem != nil {
		// Quiesce check: one last pass over every invariant now that the
		// schedule has drained (violations mid-run already aborted).
		cluster.Net.CheckInvariants()
		dropsByCause := func(name string) int64 {
			return cluster.Net.Metrics().Counter(name).Value()
		}
		fmt.Printf("\nnemesis: %d phases ran (%d kills, %d restarts); drops: %d partition, %d fault-rule, %d dead; %d dups, %d reorders injected\n",
			nem.Phases, nem.Kills, nem.Restarts,
			dropsByCause("net.dropped_partition"), dropsByCause("net.dropped_fault"), dropsByCause("net.dropped_dead"),
			dropsByCause("net.dup_injected"), dropsByCause("net.reorder_injected"))
		fmt.Printf("invariants: ok — %d round commits checked, zero violations (seed %d replays this run bit-identically)\n",
			chaos.Commits, *seed)
	}

	var worst float64
	for _, p := range progress {
		if s := p.Done.Seconds(); s > worst {
			worst = s
		}
	}
	fmt.Printf("\ntotal virtual time to train all %d apps: %.1fs\n", *apps, worst)

	if *metrics {
		// The same registry a live node serves at /metrics, merged across the
		// whole simulated fleet; deterministic for a given seed.
		fmt.Println("\nfleet telemetry snapshot:")
		fmt.Print(cluster.Net.MergedSnapshot().String())
	}
}
