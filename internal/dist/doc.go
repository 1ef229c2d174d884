// Package dist is the decentralized counterpart of internal/sim: instead of
// an event loop mutating shared state, every graph node owns its value,
// drives itself with a private exponential clock, and negotiates pairwise
// exchanges with its neighbours over explicit, optionally unreliable
// message delivery.
//
// The runtime exists to back the paper's Section 1 claim that Algorithm A
// is *decentralized*: the same local rules the simulator applies centrally
// (vanilla averaging plus the rare non-convex cut swap) run here as a
// message-passing protocol whose per-pair atomicity is enforced by a
// lock/propose/commit handshake (see machine.go), not by a global event
// queue. Experiment E12 compares the two executions with and without
// message loss; cmd/distrun drives the runtime from the command line.
//
// The protocol is one pure state machine, Machine, with two drivers: the
// live ShardRuntime (shard.go), which multiplexes the nodes over a few
// event loops with timer wheels and batched mailboxes, and the model
// checker in internal/check, which explores its schedules systematically
// and is the reference semantics.
//
// The timing model matches internal/sim exactly in distribution: node u
// initiates at Poisson rate deg(u)/2 over a uniform incident edge, which
// superposes to an independent rate-1 clock per edge — the paper's model.
// One simulated time unit is ClusterConfig.TimeScale of wall-clock time.
//
// Key types: ShardRuntime, Machine, Rule (VanillaRule, SparseCutRule), the
// Transport stack (Chan/Drop/Delay/TCP). The protocol is DESIGN.md §5; the
// deterministic lockstep check lives in the reproduction's E12 (§9.4).
package dist
