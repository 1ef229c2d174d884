package dist

import (
	"cmp"
	"slices"

	"sparsecut/internal/graph"
)

// This file is the exchange protocol itself, a pure, synchronously-
// steppable state machine, so that two very different drivers can run the
// *same* code:
//
//   - the live runtime (shard.go): shard event loops, wall-clock timer
//     wheels, a real Transport or the direct mailbox path; each shard owns
//     its nodes' NodeStates and routes StepOut effects into the runtime's
//     counters and the transport;
//   - the model checker (internal/check): a single-threaded scheduler that
//     owns every NodeState plus a virtual network, and explores message
//     and timer interleavings systematically.
//
// The live driver is pinned to the machine by the lockstep divergence test
// in shard_test.go: the runtime records every protocol event it feeds the
// machine, and replaying that event sequence through fresh NodeStates must
// reproduce byte-identical StepOuts and final values.
//
// # Exchange protocol (lock / propose / commit)
//
// A node initiates an exchange when its clock fires while it is unlocked:
//
//	initiator                         responder
//	---------                         ---------
//	lock self
//	LOCK(seq, edge, x)  ───────────▶  busy or draining? ──▶ NACK(seq)
//	                                  else: lock self,
//	                                  d := rule.Delta(edge, x, y)
//	              ◀───────────────    PROPOSE(seq, d)   (held, retransmitted)
//	x += d (once), unlock
//	COMMIT(seq)         ───────────▶  y -= d, unlock
//
// Abort paths leave no state change anywhere: a busy responder NACKs the
// LOCK; a lock timeout releases the initiator; and a PROPOSE that arrives
// after its initiator already timed out is answered with a NACK, on which
// the responder rolls back its (uncommitted) proposal and unlocks. The
// initiator therefore only ever applies a delta for its *current*
// exchange, so a committed exchange always uses both endpoints' current
// values — there is no stale-value commit even under arbitrary delays.
//
// Loss paths: a lost LOCK times out into a clean abort; a lost PROPOSE or
// COMMIT is covered by the responder retransmitting the proposal on a
// lease timer until it is answered — the initiator deduplicates by a
// per-responder seq watermark (exact match; a below-watermark proposal is
// a resurrected aborted initiation and is refused, see MutLaxWatermarkDedup)
// and re-answers COMMIT for proposals it already applied. Because the initiator applies +d exactly once and the
// responder applies the exact negation exactly once (it is locked from
// proposal to resolution, so d stays valid), a committed exchange changes
// the value sum only by the two float roundings of x±d (~1 ulp each) no
// matter what the transport drops, delays or reorders.
//
// Crash paths: a crash is fail-stop with stable storage for the node's
// value, seq counter, applied-watermarks and held proposal — only the
// outstanding initiation (Await) is volatile and aborts at crash time.
// Messages delivered to a crashed node are lost. A recovered responder
// resumes retransmitting its held proposal, so the exchange still resolves
// the way the initiator decided (COMMIT if the initiator's watermark shows
// it applied, NACK otherwise) and the value sum survives any crash
// schedule. internal/check explores exactly this fault model.
type Machine struct {
	// G is the runtime's graph; Rule the exchange rule.
	G    *graph.Graph
	Rule Rule
	// Epoch stamps outgoing messages and drops stale incoming ones (see
	// Message.Epoch).
	Epoch uint64
	// LockTimeoutNs and ResendEveryNs set the Await and Pend deadlines
	// (AwaitDeadline, PendState.ResendNs), in the driver's time base
	// (wall nanoseconds for the live runtime, virtual ticks for the
	// checker). The machine never compares them against now itself —
	// firing TimeoutAwait and Resend is the driver's decision.
	LockTimeoutNs int64
	ResendEveryNs int64
	// Mutate seeds an intentional protocol bug for checker self-tests
	// (does the checker actually catch a broken protocol?). Always MutNone
	// in the live runtime.
	Mutate Mutation
}

// Mutation selects an intentionally seeded protocol bug. Each one breaks a
// different invariant the checker asserts; internal/check's self-tests
// prove every mutation is caught and its counterexample replays.
type Mutation uint8

const (
	// MutNone is the correct protocol.
	MutNone Mutation = iota
	// MutNackRollbackApplies makes the responder apply -delta while
	// rolling back a NACKed proposal — state change on an abort path,
	// caught by the crash-adjusted sum invariant.
	MutNackRollbackApplies
	// MutStaleProposalApply makes the initiator apply a proposal for an
	// exchange it already gave up on — a stale commit, caught by the
	// provenance check (the delta no longer matches the initiator's
	// current value).
	MutStaleProposalApply
	// MutCommitIgnoresSeq makes the responder commit its held proposal on
	// any COMMIT from the right peer, ignoring the seq match — a stale
	// (duplicated or reordered) COMMIT from an older exchange epoch then
	// commits a proposal whose initiator never applied its half.
	MutCommitIgnoresSeq
	// MutNackRoleConfusion makes NACK handling ignore Message.Re, the
	// answered-request kind — the second real bug internal/check found in
	// this machine's seed: node u's LOCK seq=s, aborted and delayed, is
	// NACKed by a busy node v just as v runs its own exchange seq=s with u
	// as responder; without Re the NACK (from v, seq s) is
	// indistinguishable from v refusing u's held proposal, so u rolls the
	// proposal back while v still applies it. Kept as a seeded mutation so
	// the checker permanently proves it still catches it.
	MutNackRoleConfusion
	// MutLaxWatermarkDedup restores the protocol's original duplicate test
	// for incoming proposals, seq <= watermark instead of seq == watermark
	// — a real reordering bug internal/check found on its first run
	// against this machine: a LOCK from an aborted initiation, delayed
	// past a later committed exchange with the same responder, resurrects
	// as a fresh proposal carrying the old (lower) seq; the lax test
	// re-commits it without applying, and the responder then applies
	// -delta, breaking sum conservation. Kept as a seeded mutation so the
	// checker permanently proves it still catches its first catch.
	MutLaxWatermarkDedup
)

// String names the mutation (used in trace JSON).
func (mu Mutation) String() string {
	switch mu {
	case MutNone:
		return "none"
	case MutNackRollbackApplies:
		return "nack-rollback-applies"
	case MutStaleProposalApply:
		return "stale-proposal-apply"
	case MutCommitIgnoresSeq:
		return "commit-ignores-seq"
	case MutNackRoleConfusion:
		return "nack-ignores-role"
	case MutLaxWatermarkDedup:
		return "lax-watermark-dedup"
	default:
		return "unknown"
	}
}

// ParseMutation is the inverse of Mutation.String.
func ParseMutation(s string) (Mutation, bool) {
	for _, mu := range []Mutation{MutNone, MutNackRollbackApplies, MutStaleProposalApply, MutCommitIgnoresSeq, MutNackRoleConfusion, MutLaxWatermarkDedup} {
		if mu.String() == s {
			return mu, true
		}
	}
	return MutNone, false
}

// NodeState is the pure protocol state of one node — everything the
// exchange protocol reads or writes, and nothing the driver owns (clocks,
// RNGs, mailboxes, crash schedules live with the driver). The lock state
// is inline, so a step allocates nothing; the watermark slice is the one
// pointer the collector scans per node.
type NodeState struct {
	ID int
	X  float64
	// Seq numbers this node's initiations; (ID, Seq) identifies one
	// exchange attempt. Seq 0 names no exchange: the first initiation is
	// seq 1, which is what lets Pend use seq 0 as "none".
	Seq uint64
	// Await is the outstanding initiation, if Live; Pend the held
	// (uncommitted) proposal awaiting its commit or abort, if Live. The
	// node is locked while either is live (it NACKs incoming LOCKs and its
	// clock fires are skipped).
	Await AwaitState
	Pend  PendState
	// LastApplied[k] is the highest seq whose proposal from responder
	// G.Neighbors(ID)[k].Peer has been applied, so retransmitted duplicates
	// are answered with a fresh COMMIT without reapplying; read it through
	// Machine.Watermark. A per-responder watermark suffices: a responder
	// holds its lock until its proposal is resolved, so it proposes to this
	// node serially, and the one proposal it can be retransmitting is
	// exactly the one that set the watermark (the duplicate test is seq ==
	// watermark; a lower seq is a resurrected aborted initiation and is
	// refused — see MutLaxWatermarkDedup). nil until the node's first
	// apply.
	LastApplied []uint64
}

// AwaitState is an outstanding initiation; the zero value is none. Its
// seq is always the node's current Seq and its deadline StartedNs +
// Machine.LockTimeoutNs (Machine.AwaitDeadline), so neither is stored.
type AwaitState struct {
	// StartedNs is when the initiation's LOCK went out; StepOut.LatencyNs
	// measures LOCK-sent → PROPOSE-applied from it.
	StartedNs int64
	// Peer is the responder this initiation locked toward. Replies are
	// matched on (peer, seq), not seq alone: seq counters are per-node
	// namespaces, so a late duplicate NACK from an old exchange (carrying
	// the *other* node's seq) could otherwise collide with this node's
	// own counter and abort an unrelated healthy exchange.
	Peer graph.NodeID
	live bool
}

// Live reports whether an initiation is outstanding.
func (a *AwaitState) Live() bool { return a.live }

// awaits reports whether st's outstanding initiation is exchange seq
// toward peer.
func (st *NodeState) awaits(peer int, seq uint64) bool {
	return st.Await.live && st.Seq == seq && int(st.Await.Peer) == peer
}

// AwaitDeadline returns when st's outstanding initiation times out.
func (mc *Machine) AwaitDeadline(st *NodeState) int64 {
	return st.Await.StartedNs + mc.LockTimeoutNs
}

// PendState is a held (uncommitted) proposal; the zero value is none. It
// keeps only what identifies the PROPOSE — Machine.Resend rebuilds the
// message from it.
type PendState struct {
	// Seq is the initiator's seq the proposal answers; 0 when no proposal
	// is held.
	Seq uint64
	// Delta is the held delta: the initiator adds it, this node subtracts
	// it on commit.
	Delta    float64
	ResendNs int64
	// To is the initiator, Edge the exchange's edge.
	To   graph.NodeID
	Edge graph.EdgeID
}

// Live reports whether a proposal is held.
func (p *PendState) Live() bool { return p.Seq != 0 }

// slot returns responder's index in G.Neighbors(id), or -1 when responder
// is not a neighbour. The list is sorted by peer and the graph is simple,
// so a binary search finds the one index in O(log degree).
func (mc *Machine) slot(id, responder int) int {
	adj := mc.G.Neighbors(graph.NodeID(id))
	k, ok := slices.BinarySearchFunc(adj, graph.NodeID(responder), func(he graph.HalfEdge, p graph.NodeID) int {
		return cmp.Compare(he.Peer, p)
	})
	if !ok {
		return -1
	}
	return k
}

// Watermark returns st's apply watermark for responder: the highest seq
// whose proposal from responder st has applied, 0 if none.
func (mc *Machine) Watermark(st *NodeState, responder int) uint64 {
	k := mc.slot(st.ID, responder)
	if k < 0 || st.LastApplied == nil {
		return 0
	}
	return st.LastApplied[k]
}

// noteApplied records the per-responder apply watermark, allocating the
// slot array on the node's first apply.
func (mc *Machine) noteApplied(st *NodeState, responder int, seq uint64) {
	k := mc.slot(st.ID, responder)
	if k < 0 {
		return
	}
	if st.LastApplied == nil {
		st.LastApplied = make([]uint64, mc.G.Degree(graph.NodeID(st.ID)))
	}
	st.LastApplied[k] = seq
}

// Locked reports whether the node is in the middle of an exchange (either
// role) and therefore refuses new LOCKs and skips its own clock fires.
func (st *NodeState) Locked() bool { return st.Await.Live() || st.Pend.Live() }

// proposal rebuilds the PROPOSE of st's held proposal.
func (mc *Machine) proposal(st *NodeState) Message {
	p := &st.Pend
	return Message{Kind: MsgPropose, Re: MsgLock, From: st.ID, To: int(p.To), Seq: p.Seq, Edge: p.Edge, X: p.Delta, Epoch: mc.Epoch}
}

// StepOut is the effect of one protocol step: the message to transmit
// plus flags the driver folds into its accounting. The machine mutates
// only the NodeState it was handed; everything else is reported here.
type StepOut struct {
	// Msg is the message to hand to the transport, already epoch-stamped.
	// Every step sends at most one; Msg.Kind == 0 means it sends nothing.
	Msg Message
	// Proposed: a new initiation went out (LOCK sent, Await created).
	Proposed bool
	// PendCreated: the responder locked itself and holds a new proposal.
	PendCreated bool
	// Applied: the initiator applied its half (+delta) of its current
	// exchange and unlocked.
	Applied bool
	// Committed: the responder applied its half (-delta); the exchange is
	// committed (ShardRuntime.Exchanges counts these).
	Committed bool
	// Aborted: an outstanding initiation resolved without applying
	// anything (NACK, lock timeout, or crash).
	Aborted bool
	// PendDropped: the held proposal was rolled back without committing.
	PendDropped bool
	// LatencyNs is the LOCK-sent → PROPOSE-applied latency when Applied,
	// -1 otherwise.
	LatencyNs int64
}

// Deliver processes one incoming message against st. draining mirrors the
// runtime's drain phase: the node answers and resolves but refuses to
// start new exchanges as responder.
func (mc *Machine) Deliver(st *NodeState, m Message, nowNs int64, draining bool) StepOut {
	out := StepOut{LatencyNs: -1}
	if m.Epoch != mc.Epoch || m.Seq == 0 {
		// A leftover from a previous Run, stranded in the mailbox across
		// the run boundary (see Message.Epoch). Every previous-run
		// exchange is fully resolved by the time a run returns, so the
		// message is stale by construction. Seq 0 names no exchange (the
		// machine never sends it), so such a message is malformed input.
		return out
	}
	switch m.Kind {
	case MsgLock:
		if st.Locked() || draining {
			out.Msg = Message{Kind: MsgNack, Re: MsgLock, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
			return out
		}
		// Propose: compute the initiator's delta and hold it, locked,
		// until the initiator commits or aborts. Nothing is applied yet,
		// so a NACK rolls back to exactly the pre-LOCK state. Note the
		// rule's tick (including the sparse-cut epoch counter) happens
		// here; a subsequently NACKed proposal has still consumed a tick,
		// like a simulator tick whose update is the identity.
		d := mc.Rule.Delta(m.Edge, graph.NodeID(m.From), m.X, st.X)
		st.Pend = PendState{Seq: m.Seq, Delta: d, ResendNs: nowNs + mc.ResendEveryNs, To: graph.NodeID(m.From), Edge: m.Edge}
		out.PendCreated = true
		out.Msg = mc.proposal(st)

	case MsgPropose:
		switch {
		case st.awaits(m.From, m.Seq):
			// Our current exchange: apply our half and commit.
			mc.noteApplied(st, m.From, m.Seq)
			st.X += m.X
			out.Applied = true
			out.LatencyNs = nowNs - st.Await.StartedNs
			st.Await = AwaitState{}
			out.Msg = Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
		case m.Seq == mc.Watermark(st, m.From) || (mc.Mutate == MutLaxWatermarkDedup && m.Seq <= mc.Watermark(st, m.From)):
			// Retransmission of the proposal we already applied (our COMMIT
			// was lost): re-commit without reapplying. The match must be
			// exact: the responder proposes to us serially (it stays locked
			// until its proposal resolves), so the one proposal of ours it
			// can be retransmitting is the one that set the watermark. A
			// proposal *below* the watermark is never a retransmission — it
			// is an aborted initiation's LOCK, delayed past a later
			// committed exchange, resurrected as a fresh proposal — and
			// falls through to the refusal below. (The original `<=` test
			// here re-committed those and broke sum conservation; see
			// MutLaxWatermarkDedup.)
			out.Msg = Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
		default:
			// A proposal for an exchange we already gave up on: refuse,
			// so the responder rolls back. This is what guarantees a
			// committed exchange never uses a stale initiator value.
			if mc.Mutate == MutStaleProposalApply {
				mc.noteApplied(st, m.From, m.Seq)
				st.X += m.X
				out.Applied = true
				out.Msg = Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
				return out
			}
			out.Msg = Message{Kind: MsgNack, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
		}

	case MsgCommit:
		match := st.Pend.Seq == m.Seq && int(st.Pend.To) == m.From
		if mc.Mutate == MutCommitIgnoresSeq {
			match = st.Pend.Live() && int(st.Pend.To) == m.From
		}
		if match {
			st.X -= st.Pend.Delta
			st.Pend = PendState{}
			out.Committed = true
		}

	case MsgNack:
		// A NACK resolves the state matching the request kind it answers,
		// not just (peer, seq): seq counters are per-node namespaces, so
		// while this node's aborted LOCK seq=s is still in flight, the peer
		// can run its own exchange seq=s with this node as responder — and
		// the peer's busy-NACK for the stale LOCK carries exactly the
		// (peer, seq) of this node's held proposal. Without Re that NACK
		// rolls back a proposal the peer is about to apply (see
		// MutNackRoleConfusion, the seed bug internal/check caught).
		answersLock := m.Re == MsgLock || mc.Mutate == MutNackRoleConfusion
		answersProp := m.Re == MsgPropose || mc.Mutate == MutNackRoleConfusion
		if answersLock && st.awaits(m.From, m.Seq) {
			st.Await = AwaitState{}
			out.Aborted = true
		}
		if answersProp && st.Pend.Seq == m.Seq && int(st.Pend.To) == m.From {
			// Our held proposal was refused: roll back (nothing was
			// applied) and unlock.
			if mc.Mutate == MutNackRollbackApplies {
				st.X -= st.Pend.Delta
			}
			st.Pend = PendState{}
			out.PendDropped = true
		}
	}
	return out
}

// Initiate starts an exchange over the given incident half-edge. The
// caller guarantees st is unlocked (the runtime skips clock fires while
// locked; the checker only enables Initiate on unlocked nodes).
func (mc *Machine) Initiate(st *NodeState, he graph.HalfEdge, nowNs int64) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Locked() {
		return out
	}
	st.Seq++
	st.Await = AwaitState{StartedNs: nowNs, Peer: he.Peer, live: true}
	out.Proposed = true
	out.Msg = Message{Kind: MsgLock, From: st.ID, To: int(he.Peer), Seq: st.Seq, Edge: he.Edge, X: st.X, Epoch: mc.Epoch}
	return out
}

// TimeoutAwait gives up the outstanding initiation: the LOCK or its
// PROPOSE was lost (or the peer is saturated). A proposal that arrives
// after this point is refused, so the responder rolls back and nothing
// commits. When the timeout fires is the driver's decision; the checker
// fires it at arbitrary points to model arbitrary timing.
func (mc *Machine) TimeoutAwait(st *NodeState) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Await.Live() {
		st.Await = AwaitState{}
		out.Aborted = true
	}
	return out
}

// Resend retransmits the held proposal and renews its lease.
func (mc *Machine) Resend(st *NodeState, nowNs int64) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Pend.Live() {
		out.Msg = mc.proposal(st)
		st.Pend.ResendNs = nowNs + mc.ResendEveryNs
	}
	return out
}

// Crash fail-stops the node: the outstanding initiation (volatile) aborts;
// value, seq counter, watermarks and the held proposal survive on stable
// storage. The driver is responsible for losing messages delivered while
// the node is down.
func (mc *Machine) Crash(st *NodeState) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Await.Live() {
		st.Await = AwaitState{}
		out.Aborted = true
	}
	return out
}

// Recover brings a crashed node back: its held proposal, if any, becomes
// due for immediate retransmission so the stalled exchange resolves.
func (mc *Machine) Recover(st *NodeState, nowNs int64) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Pend.Live() {
		st.Pend.ResendNs = nowNs
	}
	return out
}
