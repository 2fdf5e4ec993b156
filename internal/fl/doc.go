// Package fl implements the federated-learning algorithms Totoro runs on
// top of its forest abstraction: weighted FedAvg and FedProx aggregation,
// client-side local training, participant selection policies, and gradient
// compression. The pieces are pure functions over flat parameter vectors so
// that the same logic runs inside the decentralized Totoro engine, the
// centralized baselines, and the unit tests.
//
// # Parallel training and determinism
//
// Client local training is CPU-bound and embarrassingly parallel, so all
// three engines fan it out over a bounded worker pool ([Go], [ForEach]) of
// GOMAXPROCS goroutines, each holding a reusable [ml.Workspace] so the
// steady state allocates nothing per batch. Parallelism must not change
// results, which requires two invariants:
//
//   - Private randomness. A shared *rand.Rand would make every client's
//     stream depend on scheduling order. Instead each client draws from
//     [ClientRNG](ws, seed, round, tag): its worker's rng reseeded to
//     [DeriveSeed](seed, round, tag), where seed is the application's
//     seed, round the FL round, and tag the client's index or [ClientTag]
//     of its node address. The stream depends only on that triple, never
//     on execution order or on which worker runs the client.
//
//   - Deterministic merge order. Floating-point addition is not
//     associative, so updates are folded into the aggregate in a fixed
//     order (selection order in Session.Round, tree child order in the
//     engines) regardless of which worker finishes first.
//
// Together these make the serial reference (Workers=1) and any parallel
// execution bit-for-bit identical.
package fl
