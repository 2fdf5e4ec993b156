// totoro-node runs one live Totoro engine over real TCP — the same
// protocol stack the simulator drives, as an actual networked process.
//
// Start a bootstrap node, then join more nodes to it; every node
// subscribes to a demo topic and, if -publish is given, broadcasts a
// message down the application's dataflow tree once the overlay settles.
//
//	# terminal 1
//	totoro-node -listen 127.0.0.1:7001
//	# terminal 2..n
//	totoro-node -listen 127.0.0.1:7002 -bootstrap 127.0.0.1:7001
//	# any terminal
//	totoro-node -listen 127.0.0.1:7009 -bootstrap 127.0.0.1:7001 \
//	    -publish "model v1 is ready"
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	totoro "totoro"
	"totoro/internal/ids"
	"totoro/internal/obs"
	"totoro/internal/ring"
	"totoro/internal/store"
	"totoro/internal/transport"
	"totoro/internal/transport/tcpnet"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		bootstrap = flag.String("bootstrap", "", "address of any overlay member (empty = first node)")
		topic     = flag.String("topic", "demo-app", "application topic to subscribe to")
		publish   = flag.String("publish", "", "optional message to broadcast after joining")
		agg       = flag.Int("aggregate", 0, "optional value to contribute to aggregation round 1")
		metrics   = flag.String("metrics", "", "HTTP address serving /metrics, /metrics/text, /metrics/prom, /metrics/trace (empty = off)")
		dataDir   = flag.String("data-dir", "", "directory for the durable store (WAL + snapshots); the node recovers its identity and roles from it on boot (empty = in-memory only)")
		walSync   = flag.Bool("wal-sync", false, "fsync the WAL on every append (durable against power loss, at per-record flush latency)")
	)
	flag.Parse()

	totoro.RegisterWire()

	var idBytes [16]byte
	if _, err := rand.Read(idBytes[:]); err != nil {
		log.Fatal(err)
	}
	nodeID := ids.FromBytes(idBytes[:])

	// With -data-dir the engine journals to a WAL and, on boot, recovers
	// its ring identity and master/worker roles from the last run. The
	// random nodeID above is only the first-boot fallback; recovery
	// overrides it so the node reclaims its old ring position.
	var st store.Store
	if *dataDir != "" {
		f, err := store.Open(*dataDir, store.FileConfig{Sync: *walSync})
		if err != nil {
			log.Fatalf("durable store: %v", err)
		}
		st = f
		defer f.Close()
	}

	var engine *totoro.Engine
	node, err := tcpnet.Listen(*listen, func(e transport.Env) transport.Handler {
		engine = totoro.NewEngine(e, ring.Contact{ID: nodeID, Addr: e.Self()},
			totoro.Options{Ring: ring.Config{B: 4}, Store: st})
		engine.SetCallbacks(totoro.Callbacks{
			OnBroadcast: func(app totoro.AppID, obj any, depth int, sub bool) {
				log.Printf("broadcast on %s… (depth %d): %v", app.Short(), depth, obj)
			},
			Combine: func(app totoro.AppID, a, b any) any {
				ai, aok := a.(int)
				bi, bok := b.(int)
				if aok && bok {
					return ai + bi
				}
				return b
			},
			OnAggregate: func(app totoro.AppID, round int, obj any, count int) {
				log.Printf("aggregation round %d complete at root: value=%v from %d contributors",
					round, obj, count)
			},
		})
		return engine
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	recovered := false
	node.Do(func() {
		recovered = engine.Recovered()
		nodeID = engine.Self().ID
	})
	if recovered {
		log.Printf("recovered engine state from %s", *dataDir)
	}
	log.Printf("node %s up, id %s…", node.Addr(), nodeID.Short())

	if *metrics != "" {
		bound, stop, err := obs.StartServer(*metrics, obs.RegistryHandler(node.Metrics()))
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		defer stop()
		log.Printf("telemetry at http://%s/metrics", bound)
	}

	if *bootstrap != "" {
		// Rejoin also resumes the roles a recovered engine holds, once the
		// ring reports the join complete.
		node.Do(func() { engine.Rejoin(transport.Addr(*bootstrap)) })
		deadline := time.Now().Add(10 * time.Second)
		for {
			joined := false
			node.Do(func() { joined = engine.Ring().Joined() })
			if joined {
				break
			}
			if time.Now().After(deadline) {
				log.Fatal("join timed out")
			}
			time.Sleep(100 * time.Millisecond)
		}
		log.Printf("joined overlay via %s", *bootstrap)
	} else if recovered {
		// Running standalone: restart any training rounds the WAL says were
		// in flight when the last run died.
		node.Do(func() { engine.ResumeAfterRestart() })
		log.Printf("resumed recovered roles")
	}

	appID := totoro.NewAppID(*topic, "totoro-node")
	node.Do(func() { engine.SubscribeTopic(appID) })
	log.Printf("subscribed to %q (%s…)", *topic, appID.Short())
	time.Sleep(500 * time.Millisecond)

	if *publish != "" {
		msg := *publish
		node.Do(func() { engine.Broadcast(appID, msg) })
		log.Printf("published %q", msg)
	}
	if *agg != 0 {
		v := *agg
		node.Do(func() { engine.Aggregate(appID, 1, v) })
		log.Printf("contributed %d to aggregation round 1", v)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	fmt.Println("running; ctrl-c to exit")
	<-sig
}
