// Churn: training through node failures (paper §4.5, §7.5).
//
// An FL application trains while a seeded Poisson churn phase of the
// nemesis scheduler keeps failing (and later reviving) nodes around it.
// Keep-alive heartbeats detect failed parents; orphaned children re-route
// their JOINs toward the AppId and splice back into the tree; aggregation
// timeouts keep rounds flowing while repairs happen. Training finishes
// despite the churn — and the whole fault schedule is deterministic, so
// every run of this example prints the same trajectory.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	totoro "totoro"
	"totoro/internal/pubsub"
	"totoro/internal/ring"
	"totoro/internal/simnet"
	"totoro/internal/transport"
	"totoro/internal/workload"
)

func main() {
	cluster := totoro.NewCluster(totoro.ClusterConfig{
		N:    100,
		Seed: 31,
		Ring: ring.Config{B: 4, ReliableHops: true, HopAckTimeout: 150 * time.Millisecond},
		PubSub: pubsub.Config{
			KeepAliveInterval: 100 * time.Millisecond,
			KeepAliveTimeout:  300 * time.Millisecond,
			AggTimeout:        2 * time.Second,
		},
		Bandwidth: 2 << 20,
	})

	app := workload.MakeApps(workload.Params{
		Task: workload.TaskSpeech, Apps: 1, ClientsPerApp: 20, SamplesPerClient: 50, Seed: 3,
	})[0]
	app.Name = "churn-resilient-training"
	app.TargetAccuracy = 0 // run the full schedule
	app.MaxRounds = 14

	// Place the workers explicitly so the churn phase can be told to spare
	// them: the point here is tree repair around failures, not data loss.
	perm := rand.New(rand.NewSource(31)).Perm(len(cluster.Engines))
	workers := perm[:len(app.Shards)]
	id := cluster.Deploy(app, workers[0], workers)
	master := cluster.Master(id)
	fmt.Printf("master: %s, %d workers subscribed\n", master.Self().Addr, len(workers))

	// Background churn: on average one failure every 400ms of virtual time,
	// each victim down for 5s. Master and workers are exempt — everything
	// else (including the tree's interior forwarders) is fair game.
	exempt := []transport.Addr{master.Self().Addr}
	for _, w := range workers {
		exempt = append(exempt, cluster.Engines[w].Self().Addr)
	}
	// The phase starts now, not at zero: building the tree advanced the clock.
	const limit = 10 * time.Minute
	churn, err := cluster.Net.StartNemesis(simnet.NemesisConfig{
		Seed:   12,
		Exempt: exempt,
		Phases: []simnet.Phase{{
			Kind: "churn", Start: cluster.Net.Now(), Dur: limit,
			Params: map[string]string{"mtbf": "400ms", "down": "5s"},
		}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Train to completion while the churn phase runs underneath.
	cluster.Engines[workers[0]].StartTraining(id)
	cluster.StepUntilDone(cluster.Net.Now()+limit, id)

	p := cluster.Progress(id)
	repairs := 0
	for _, e := range cluster.Engines {
		repairs += int(e.Metrics().Counter("pubsub.repairs").Value())
	}
	last := p.Points[len(p.Points)-1]
	fmt.Printf("\nchurn injected %d failures (%d revived); survivors ran %d tree repairs\n",
		churn.Kills, churn.Revives, repairs)
	fmt.Printf("training completed round %d with accuracy %.3f at t=%.1fs\n",
		last.Round, last.Accuracy, p.Done.Seconds())
	for _, pt := range p.Points {
		fmt.Printf("  round %2d  t=%6.1fs  acc=%.3f  participants=%d\n",
			pt.Round, pt.Time.Seconds(), pt.Accuracy, pt.Participants)
	}
}
