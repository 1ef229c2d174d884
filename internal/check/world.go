package check

import (
	"fmt"
	"math"

	"sparsecut/internal/dist"
	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
)

// Invariant names as they appear in Violation.Invariant / trace JSON.
const (
	invSum         = "sum"
	invStaleCommit = "stale-commit"
	invLockState   = "lock-state"
	invQuiescence  = "quiescence"
)

// Virtual-time constants. The checker's clock advances one tick per action;
// the machine's deadlines are written in this base but never consulted —
// the checker fires TimeoutAwait/Resend as explicit explorable actions, so
// the exact values only matter for trace readability.
const (
	vTick          = 1_000
	vLockTimeoutNs = 1_000_000
	vResendNs      = 500_000
)

// exKey identifies one exchange attempt: (initiator, initiator's seq).
type exKey struct {
	init int
	seq  uint64
}

// lockValue is one ghost-provenance record: the initiator's value when
// exchange attempt k's LOCK went out.
type lockValue struct {
	k exKey
	x float64
}

// world is one explored state of the whole system: every node's protocol
// state, the crash bitmap, the virtual network (an ordered multiset of
// in-flight messages — delivery order is the checker's choice, which is
// what models reordering), and the ghost state the invariants need.
//
// Worlds are reused, not forked: the explorer keeps one world per DFS
// depth and overwrites it with copyFrom for every transition. A world is
// always heap-allocated (newWorld, blank) and never copied as a struct,
// because mc.Rule points at the world's own rule.
type world struct {
	g    *graph.Graph
	opt  Options
	rule checkRule
	mc   dist.Machine

	nodes   []dist.NodeState
	crashed []bool
	net     []dist.Message

	// la holds every node's apply watermarks in one flat array parallel
	// to the graph's CSR half-edges. nodes[i].LastApplied is the capped
	// sub-slice of node i's half-edges (bindWatermarks), so the machine
	// never allocates one and a copy is a single copy().
	la []uint64

	// xInit is ghost provenance: the initiator's value at the moment each
	// exchange attempt's LOCK went out. The no-stale-commit invariant
	// checks every initiator apply against it — the protocol's claim is
	// precisely that a committed delta was computed from the initiator's
	// current value. It holds one entry per initiation, a handful, so it
	// is a slice, searched from the end, that copies without allocating.
	xInit []lockValue

	sum0  float64
	nowNs int64
	steps int

	// Spent schedule budgets (see Options).
	inits, dups, resends, crashes int

	// rec, when non-nil, receives a flight record for every applied
	// action (ReplayFlight sets it on the top-level replay world; the
	// emission mapping is dist.FlightEmitter, shared with the live
	// runtime). copyFrom never copies it, so explored frames and the
	// throwaway quiescence drains record nothing.
	rec *flight.Recorder

	// scratch is the world the quiescence drain runs on: invariants copies
	// this world into it first. Worlds made by blank share their source's
	// scratch, so one exploration has one.
	scratch *world
	// keys is hash's reusable buffer of in-flight message keys.
	keys [][2]uint64
}

func newWorld(spec Spec, opt Options) (*world, error) {
	if spec.Graph == nil {
		return nil, fmt.Errorf("check: spec has no graph")
	}
	n := spec.Graph.NumNodes()
	if len(spec.X0) != n {
		return nil, fmt.Errorf("check: %d initial values for %d nodes", len(spec.X0), n)
	}
	sum0 := 0.0
	for i, x := range spec.X0 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("check: initial value of node %d is %v", i, x)
		}
		sum0 += x
	}
	// msgKey packs node IDs into 8 bits and seqs into 24; past those widths
	// distinct messages would hash alike and the explorer would merge
	// states. A seq never exceeds the initiation budget. The 16-bit edge
	// field needs no check of its own: a simple graph on 256 nodes has at
	// most 32 640 edges.
	if n > 1<<8 {
		return nil, fmt.Errorf("check: %d nodes, at most %d fit the state hash", n, 1<<8)
	}
	if opt.MaxInitiations >= 1<<24 {
		return nil, fmt.Errorf("check: initiation budget %d, must be below %d to fit the state hash", opt.MaxInitiations, 1<<24)
	}
	rule, err := buildRule(spec.Rule, spec.Graph)
	if err != nil {
		return nil, err
	}
	w := &world{
		g:       spec.Graph,
		opt:     opt,
		rule:    *rule,
		nodes:   make([]dist.NodeState, n),
		crashed: make([]bool, n),
		la:      make([]uint64, 2*spec.Graph.NumEdges()),
		sum0:    sum0,
	}
	w.mc = dist.Machine{
		G: spec.Graph, Rule: &w.rule, Epoch: 1,
		LockTimeoutNs: vLockTimeoutNs, ResendEveryNs: vResendNs,
		Mutate: opt.Mutation,
	}
	for i := range w.nodes {
		w.nodes[i] = dist.NodeState{ID: i, X: spec.X0[i]}
	}
	w.bindWatermarks()
	w.scratch = w.blank()
	return w, nil
}

// blank allocates a world for the same system as w, with buffers sized for
// it, for copyFrom to fill. It shares w's scratch.
func (w *world) blank() *world {
	b := &world{
		g:       w.g,
		opt:     w.opt,
		mc:      w.mc,
		nodes:   make([]dist.NodeState, len(w.nodes)),
		crashed: make([]bool, len(w.crashed)),
		la:      make([]uint64, len(w.la)),
		sum0:    w.sum0,
		scratch: w.scratch,
	}
	b.mc.Rule = &b.rule
	return b
}

// copyFrom overwrites w with src's state, reusing w's buffers, so once
// they have grown to fit it allocates nothing. Everything mutable is
// copied by value, including the rule (its tick counter is protocol state
// the DFS must backtrack); the recorder is not.
func (w *world) copyFrom(src *world) {
	w.rule = src.rule
	copy(w.nodes, src.nodes)
	copy(w.la, src.la)
	w.bindWatermarks() // the copied nodes still point into src.la
	copy(w.crashed, src.crashed)
	w.net = append(w.net[:0], src.net...)
	w.xInit = append(w.xInit[:0], src.xInit...)
	w.nowNs, w.steps = src.nowNs, src.steps
	w.inits, w.dups, w.resends, w.crashes = src.inits, src.dups, src.resends, src.crashes
	w.rec = nil
}

// bindWatermarks points every node's LastApplied at its slots of w.la.
func (w *world) bindWatermarks() {
	off, _, _ := w.g.CSR()
	for i := range w.nodes {
		w.nodes[i].LastApplied = w.la[off[i]:off[i+1]:off[i+1]]
	}
}

// lockX returns the provenance value recorded for k, if any.
func (w *world) lockX(k exKey) (float64, bool) {
	for i := len(w.xInit) - 1; i >= 0; i-- {
		if w.xInit[i].k == k {
			return w.xInit[i].x, true
		}
	}
	return 0, false
}

// enabled enumerates the actions explorable from this state into acts
// (overwritten, reusing its capacity), in a fixed deterministic order (the
// order defines what a schedule byte selects).
func (w *world) enabled(acts []Action) []Action {
	acts = acts[:0]
	for i := range w.net {
		acts = append(acts, Action{Op: OpDeliver, Msg: i})
	}
	if w.opt.Drops {
		for i := range w.net {
			acts = append(acts, Action{Op: OpDrop, Msg: i})
		}
	}
	if w.opt.Dups && w.dups < w.opt.MaxDups {
		for i := range w.net {
			// LOCKs are excluded: the transport contract never duplicates,
			// and the protocol never retransmits LOCKs, so every duplicate
			// in the real system is a re-offered PROPOSE / re-answered
			// COMMIT or NACK. A duplicated LOCK would make the checker
			// explore behaviours outside the system's fault model (it
			// genuinely breaks the watermark argument — two live exchange
			// attempts with the same (initiator, seq) identity).
			if w.net[i].Kind != dist.MsgLock {
				acts = append(acts, Action{Op: OpDup, Msg: i})
			}
		}
	}
	for n := range w.nodes {
		st := &w.nodes[n]
		if w.crashed[n] {
			acts = append(acts, Action{Op: OpRecover, Node: n})
			continue
		}
		if !st.Locked() && w.inits < w.opt.MaxInitiations {
			for e := range w.g.Neighbors(graph.NodeID(n)) {
				acts = append(acts, Action{Op: OpInitiate, Node: n, Edge: e})
			}
		}
		if st.Await.Live() {
			acts = append(acts, Action{Op: OpTimeout, Node: n})
		}
		if st.Pend.Live() && w.resends < w.opt.MaxResends {
			acts = append(acts, Action{Op: OpResend, Node: n})
		}
		if w.opt.Crashes && w.crashes < w.opt.MaxCrashes {
			acts = append(acts, Action{Op: OpCrash, Node: n})
		}
	}
	return acts
}

// apply executes one action and then checks every invariant. It returns a
// *Violation when an invariant fails, or an errInvalid-wrapped error when
// the action is not applicable (corrupt trace / fuzzed schedule); nil
// means the step is clean. apply validates applicability, not budgets —
// budget discipline lives in enabled(), so a replayed trace is not
// re-judged against its budgets.
func (w *world) apply(a Action) error {
	w.steps++
	w.nowNs += vTick
	var verr error
	switch a.Op {
	case OpDeliver:
		m, err := w.takeMsg(a.Msg)
		if err != nil {
			return err
		}
		verr = w.deliver(m, false)
	case OpDrop:
		m, err := w.takeMsg(a.Msg)
		if err != nil {
			return err
		}
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.NetDrop(m, m.From, flight.ReasonSchedule, w.nowNs)
		}
	case OpDup:
		if a.Msg < 0 || a.Msg >= len(w.net) {
			return fmt.Errorf("%w: dup of message %d of %d in flight", errInvalid, a.Msg, len(w.net))
		}
		w.net = append(w.net, w.net[a.Msg])
		w.dups++
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.NetDup(w.net[a.Msg], w.nowNs)
		}
	case OpInitiate:
		st, err := w.aliveNode(a.Node)
		if err != nil {
			return err
		}
		if st.Locked() {
			return fmt.Errorf("%w: initiate on locked node %d", errInvalid, a.Node)
		}
		adj := w.g.Neighbors(graph.NodeID(a.Node))
		if a.Edge < 0 || a.Edge >= len(adj) {
			return fmt.Errorf("%w: node %d has no incident edge index %d", errInvalid, a.Node, a.Edge)
		}
		out := w.mc.Initiate(st, adj[a.Edge], w.nowNs)
		w.inits++
		if m := out.Msg; m.Kind == dist.MsgLock {
			w.xInit = append(w.xInit, lockValue{exKey{st.ID, m.Seq}, m.X})
		}
		if w.rec != nil {
			fe := dist.FlightEmitter{Rec: w.rec}
			fe.Initiate(a.Node, out, w.nowNs)
			w.emitSend(fe, a.Node, out.Msg)
		}
		w.enqueue(out.Msg)
	case OpTimeout:
		st, err := w.aliveNode(a.Node)
		if err != nil {
			return err
		}
		if !st.Await.Live() {
			return fmt.Errorf("%w: timeout on node %d with no outstanding initiation", errInvalid, a.Node)
		}
		var pre dist.FlightPre
		if w.rec != nil {
			pre = dist.FlightPreOf(st)
		}
		out := w.mc.TimeoutAwait(st)
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.Timeout(a.Node, out, pre, w.nowNs)
		}
	case OpResend:
		st, err := w.aliveNode(a.Node)
		if err != nil {
			return err
		}
		if !st.Pend.Live() {
			return fmt.Errorf("%w: resend on node %d with no held proposal", errInvalid, a.Node)
		}
		var pre dist.FlightPre
		if w.rec != nil {
			pre = dist.FlightPreOf(st)
		}
		out := w.mc.Resend(st, w.nowNs)
		w.resends++
		if w.rec != nil {
			fe := dist.FlightEmitter{Rec: w.rec}
			fe.Resend(a.Node, pre, w.nowNs)
			w.emitSend(fe, a.Node, out.Msg)
		}
		w.enqueue(out.Msg)
	case OpCrash:
		st, err := w.aliveNode(a.Node)
		if err != nil {
			return err
		}
		w.crashed[a.Node] = true
		w.crashes++
		var pre dist.FlightPre
		if w.rec != nil {
			pre = dist.FlightPreOf(st)
		}
		out := w.mc.Crash(st)
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.Crash(a.Node, out, pre, w.nowNs)
		}
	case OpRecover:
		if a.Node < 0 || a.Node >= len(w.nodes) || !w.crashed[a.Node] {
			return fmt.Errorf("%w: recover on node %d which is not crashed", errInvalid, a.Node)
		}
		w.crashed[a.Node] = false
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.Recover(a.Node, w.nowNs)
		}
		w.enqueue(w.mc.Recover(&w.nodes[a.Node], w.nowNs).Msg)
	default:
		return fmt.Errorf("%w: unknown op %q", errInvalid, a.Op)
	}
	if verr != nil {
		return w.atStep(verr)
	}
	return w.atStep(w.invariants())
}

// atStep stamps a fresh violation with the current schedule step.
func (w *world) atStep(err error) error {
	if v, ok := err.(*Violation); ok && v.Step == 0 {
		v.Step = w.steps
	}
	return err
}

func (w *world) aliveNode(i int) (*dist.NodeState, error) {
	if i < 0 || i >= len(w.nodes) {
		return nil, fmt.Errorf("%w: node %d out of range", errInvalid, i)
	}
	if w.crashed[i] {
		return nil, fmt.Errorf("%w: node %d is crashed", errInvalid, i)
	}
	return &w.nodes[i], nil
}

func (w *world) takeMsg(i int) (dist.Message, error) {
	if i < 0 || i >= len(w.net) {
		return dist.Message{}, fmt.Errorf("%w: message index %d of %d in flight", errInvalid, i, len(w.net))
	}
	m := w.net[i]
	w.net = append(w.net[:i], w.net[i+1:]...)
	return m, nil
}

// enqueue puts a step's message, if it sends one, in flight.
func (w *world) enqueue(m dist.Message) {
	if m.Kind != 0 {
		w.net = append(w.net, m)
	}
}

// emitSend records a step's outgoing message, if any, mirroring the live
// runtime's send() hook.
func (w *world) emitSend(fe dist.FlightEmitter, node int, m dist.Message) {
	if m.Kind != 0 {
		fe.Send(node, m, w.nowNs)
	}
}

// deliver hands m to its destination and runs the per-delivery ghost
// checks. A message to a crashed node is lost — the runtime's fail-stop
// semantics.
func (w *world) deliver(m dist.Message, draining bool) error {
	if w.crashed[m.To] {
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.NetDrop(m, m.To, flight.ReasonDead, w.nowNs)
		}
		return nil
	}
	st := &w.nodes[m.To]
	xBefore := st.X
	var pendSeq uint64
	pendInit := -1
	if st.Pend.Live() {
		pendSeq, pendInit = st.Pend.Seq, int(st.Pend.To)
	}
	var pre dist.FlightPre
	if w.rec != nil {
		pre = dist.FlightPreOf(st)
	}
	out := w.mc.Deliver(st, m, w.nowNs, draining)
	if w.rec != nil {
		fe := dist.FlightEmitter{Rec: w.rec}
		fe.Deliver(m.To, m, out, pre, w.nowNs)
		w.emitSend(fe, m.To, out.Msg)
	}
	w.enqueue(out.Msg)
	if out.Applied {
		// Provenance: the delta the initiator just applied was computed by
		// the responder from the value the LOCK carried. If that is not the
		// initiator's value at apply time, a stale exchange committed.
		rec, ok := w.lockX(exKey{st.ID, m.Seq})
		if !ok || rec != xBefore {
			return &Violation{Invariant: invStaleCommit, Detail: fmt.Sprintf(
				"node %d applied proposal seq %d from node %d computed against value %v, but its value at apply time is %v",
				st.ID, m.Seq, m.From, rec, xBefore)}
		}
	}
	if out.Committed && pendInit >= 0 {
		// A responder must only commit a proposal whose initiator actually
		// applied the matching half (watermark equals the pend's seq; see
		// sumInvariant for why equality is the applied test).
		if got := w.mc.Watermark(&w.nodes[pendInit], st.ID); got != pendSeq {
			return &Violation{Invariant: invStaleCommit, Detail: fmt.Sprintf(
				"node %d committed held proposal seq %d whose initiator %d has applied-watermark %d",
				st.ID, pendSeq, pendInit, got)}
		}
	}
	return nil
}

// invariants runs the per-step safety checks: lock-state sanity, the
// crash-adjusted sum, and (on its configured cadence) the quiescence
// drain on a throwaway copy in the scratch world.
func (w *world) invariants() error {
	if err := w.lockSanity(); err != nil {
		return err
	}
	if err := w.sumInvariant(); err != nil {
		return err
	}
	if q := w.opt.QuiescenceEvery; q < 0 || (q > 1 && w.steps%q != 0) {
		return nil
	}
	w.scratch.copyFrom(w)
	return w.scratch.drain()
}

func (w *world) lockSanity() error {
	for i := range w.nodes {
		st := &w.nodes[i]
		if st.Await.Live() && st.Pend.Live() {
			return &Violation{Invariant: invLockState, Detail: fmt.Sprintf(
				"node %d holds both an outstanding initiation and a held proposal", i)}
		}
		if w.crashed[i] && st.Await.Live() {
			return &Violation{Invariant: invLockState, Detail: fmt.Sprintf(
				"crashed node %d still holds its (volatile) outstanding initiation", i)}
		}
		for k, seq := range st.LastApplied {
			if seq > st.Seq {
				r := w.g.Neighbors(graph.NodeID(i))[k].Peer
				return &Violation{Invariant: invLockState, Detail: fmt.Sprintf(
					"node %d applied-watermark for responder %d is %d, past its own seq counter %d", i, r, seq, st.Seq)}
			}
		}
	}
	return nil
}

// sumInvariant checks crash-adjusted sum conservation. Mid-exchange the
// raw sum legitimately carries each applied-but-uncommitted delta once
// (the initiator applied +d, the responder still holds d); subtracting
// exactly those held deltas must recover the initial sum at every
// reachable state — including any crash pattern, since values, watermarks
// and held proposals are stable storage.
func (w *world) sumInvariant() error {
	s := 0.0
	for i := range w.nodes {
		s += w.nodes[i].X
	}
	for i := range w.nodes {
		st := &w.nodes[i]
		if !st.Pend.Live() {
			continue
		}
		// The initiator applied this held proposal iff its watermark equals
		// the pend's seq exactly: proposals to one initiator are serial, and
		// a held proposal below the watermark is a resurrected aborted
		// initiation the initiator never applied (and must refuse — that
		// refusal being exact is precisely what MutLaxWatermarkDedup breaks).
		if w.mc.Watermark(&w.nodes[st.Pend.To], st.ID) == st.Pend.Seq {
			s -= st.Pend.Delta
		}
	}
	if d := s - w.sum0; math.Abs(d) > w.opt.Epsilon {
		return &Violation{Invariant: invSum, Detail: fmt.Sprintf(
			"crash-adjusted sum %v drifted from initial %v by %v", s, w.sum0, d)}
	}
	return nil
}

// drain runs the deterministic quiescence procedure on (a copy of) the
// world: recover everyone, then repeatedly deliver the oldest in-flight
// message, else retransmit a held proposal, else time out an outstanding
// initiation — the drain counterpart of the runtime's drain phase (new
// LOCKs are refused). From any reachable state of the correct protocol
// this terminates in a fully unlocked world whose plain sum equals the
// initial sum.
func (w *world) drain() error {
	for i := range w.crashed {
		if w.crashed[i] {
			w.crashed[i] = false
			w.enqueue(w.mc.Recover(&w.nodes[i], w.nowNs).Msg)
		}
	}
	limit := 100 + 30*(len(w.net)+len(w.nodes))
	for step := 0; ; step++ {
		if step > limit {
			return &Violation{Invariant: invQuiescence, Detail: fmt.Sprintf(
				"world did not quiesce within %d drain steps", limit)}
		}
		w.nowNs += vTick
		if len(w.net) > 0 {
			m, _ := w.takeMsg(0) // shifts in place, keeping the buffer's capacity
			if err := w.deliver(m, true); err != nil {
				if v, ok := err.(*Violation); ok {
					v.Detail = "during quiescence drain: " + v.Detail
				}
				return err
			}
			continue
		}
		acted := false
		for i := range w.nodes {
			if st := &w.nodes[i]; st.Pend.Live() {
				w.enqueue(w.mc.Resend(st, w.nowNs).Msg)
				acted = true
				break
			}
		}
		if !acted {
			for i := range w.nodes {
				if st := &w.nodes[i]; st.Await.Live() {
					w.mc.TimeoutAwait(st)
					acted = true
					break
				}
			}
		}
		if !acted {
			break
		}
	}
	s := 0.0
	for i := range w.nodes {
		s += w.nodes[i].X
	}
	if d := s - w.sum0; math.Abs(d) > w.opt.Epsilon {
		return &Violation{Invariant: invQuiescence, Detail: fmt.Sprintf(
			"drained sum %v differs from initial %v by %v", s, w.sum0, d)}
	}
	return nil
}

// hash is the canonical state fingerprint for DFS deduplication. Virtual
// timestamps (deadlines, leases, the clock itself) are deliberately
// excluded — the checker fires timers by explicit action, so two states
// differing only in clock readings have identical futures. The network is
// hashed as a sorted multiset: delivery actions can pick any in-flight
// message, so worlds differing only in queue order are behaviourally
// isomorphic (a small symmetry reduction). Ghost provenance is also
// excluded: entries relevant to any in-flight or held proposal are fully
// determined by the hashed state.
func (w *world) hash() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := range w.nodes {
		st := &w.nodes[i]
		mix(math.Float64bits(st.X))
		mix(st.Seq)
		if st.Await.Live() {
			mix(1)
			mix(uint64(st.Await.Peer))
			mix(st.Seq) // the live Await's seq
		} else {
			mix(0)
		}
		if p := &st.Pend; p.Live() {
			k := msgKey(dist.Message{Kind: dist.MsgPropose, From: st.ID, To: int(p.To), Seq: p.Seq, Edge: p.Edge, X: p.Delta})
			mix(2)
			mix(k[0])
			mix(k[1])
		} else {
			mix(0)
		}
		// One word per neighbour slot, 0 before the node's first apply.
		for k := range w.g.Neighbors(graph.NodeID(i)) {
			mix(st.LastApplied[k])
		}
		if w.crashed[i] {
			mix(1)
		} else {
			mix(0)
		}
	}
	keys := w.keys[:0]
	for _, m := range w.net {
		keys = append(keys, msgKey(m))
	}
	w.keys = keys
	// Insertion sort: the network holds a handful of messages, and unlike
	// sort.Slice it allocates nothing.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	mix(uint64(len(keys)))
	for _, k := range keys {
		mix(k[0])
		mix(k[1])
	}
	mix(uint64(w.rule.ticks))
	mix(uint64(w.rule.swaps))
	mix(uint64(w.inits))
	mix(uint64(w.dups))
	mix(uint64(w.resends))
	mix(uint64(w.crashes))
	if q := w.opt.QuiescenceEvery; q > 1 {
		// Which step of the quiescence cadence we are on changes what future
		// steps will check, so it is part of the state.
		mix(uint64(w.steps % q))
	}
	return h
}

func keyLess(a, b [2]uint64) bool {
	return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
}

// msgKey packs a message's time-independent identity for hashing. Re
// takes the top four bits: a NACK refusing a LOCK and one refusing a
// held proposal can agree on every other field, yet Machine.Deliver
// handles them differently, so they are different states.
func msgKey(m dist.Message) [2]uint64 {
	k := uint64(m.Re)<<60 | uint64(m.Kind)<<56 | uint64(uint8(m.From))<<48 | uint64(uint8(m.To))<<40 |
		uint64(uint16(m.Edge))<<24 | (m.Seq & 0xffffff)
	return [2]uint64{k, math.Float64bits(m.X)}
}
