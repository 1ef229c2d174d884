package dist

import (
	"context"
	"math"
	"testing"
	"time"

	"sparsecut/internal/graph"
)

// TestCrashRecoverySumConserved injects a hostile crash schedule on top of
// a lossy transport and asserts the protocol's core promise: the value sum
// survives exactly (stable storage keeps held proposals across crashes;
// the drain phase force-recovers nodes still down).
func TestCrashRecoverySumConserved(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	crashes := []CrashEvent{
		{Node: 0, At: 1, Recover: 4},
		{Node: 3, At: 2, Recover: 6},
		{Node: 6, At: 0.5, Recover: 3},
		{Node: 9, At: 3}, // down until drain
		{Node: 0, At: 7, Recover: 9},
	}
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{ClusterConfig: ClusterConfig{
		TimeScale: 4 * time.Millisecond, Seed: 3, Crashes: crashes,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), 12); err != nil {
		t.Fatal(err)
	}
	if rt.Exchanges() == 0 {
		t.Fatal("no exchanges committed under the crash schedule")
	}
	if got, want := rt.Crashes(), int64(len(crashes)); got != want {
		t.Errorf("Crashes() = %d, want %d (every scheduled window fires)", got, want)
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g across %d crashes", drift, rt.Crashes())
	}
	// The schedule is per-Run: a second run re-fires it and stays exact.
	if err := rt.Run(context.Background(), 12); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Crashes(), int64(2*len(crashes)); got != want {
		t.Errorf("Crashes() after second run = %d, want %d", got, want)
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g after the second crashy run", drift)
	}
}

func TestCrashScheduleValidation(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	cases := []struct {
		name string
		ev   []CrashEvent
	}{
		{"node out of range", []CrashEvent{{Node: 99, At: 1}}},
		{"negative node", []CrashEvent{{Node: -1, At: 1}}},
		{"negative time", []CrashEvent{{Node: 0, At: -1}}},
		{"NaN time", []CrashEvent{{Node: 0, At: math.NaN()}}},
		{"recover before crash", []CrashEvent{{Node: 0, At: 2, Recover: 1}}},
		{"overlapping windows", []CrashEvent{{Node: 0, At: 1, Recover: 5}, {Node: 0, At: 3, Recover: 7}}},
		{"second window after down-until-drain", []CrashEvent{{Node: 0, At: 1}, {Node: 0, At: 3, Recover: 4}}},
	}
	for _, c := range cases {
		if _, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{ClusterConfig: ClusterConfig{Crashes: c.ev}}); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// The remaining tests drive the machine directly — single-threaded, no
// transport, virtual time — exactly the way the model checker does.

func testMachine(t *testing.T) (*Machine, []*NodeState) {
	t.Helper()
	g, err := graph.NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	mc := &Machine{G: g, Rule: NewVanillaRule(), Epoch: 1, LockTimeoutNs: 100, ResendEveryNs: 40}
	sts := []*NodeState{{ID: 0, X: 1}, {ID: 1, X: 5}, {ID: 2, X: 0}}
	return mc, sts
}

func halfEdgeTo(t *testing.T, mc *Machine, from, to int) graph.HalfEdge {
	t.Helper()
	for _, he := range mc.G.Neighbors(graph.NodeID(from)) {
		if int(he.Peer) == to {
			return he
		}
	}
	t.Fatalf("no edge %d-%d", from, to)
	return graph.HalfEdge{}
}

// TestMachineSlotFindsEveryNeighbour checks the watermark slot lookup on
// a dense and a sparse graph: every neighbour's slot is its index in
// Neighbors, and a non-neighbour (or the node itself) has none.
func TestMachineSlotFindsEveryNeighbour(t *testing.T) {
	db, _, err := graph.Dumbbell(12, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{graph.Complete(17), db, graph.Torus(4, 5)} {
		mc := &Machine{G: g}
		for id := 0; id < g.NumNodes(); id++ {
			isPeer := make([]bool, g.NumNodes())
			for k, he := range g.Neighbors(graph.NodeID(id)) {
				isPeer[he.Peer] = true
				if got := mc.slot(id, int(he.Peer)); got != k {
					t.Fatalf("%s: slot(%d, %d) = %d, want %d", g.Name(), id, he.Peer, got, k)
				}
			}
			for v := -1; v <= g.NumNodes(); v++ {
				if (v < 0 || v >= g.NumNodes() || !isPeer[v]) && mc.slot(id, v) != -1 {
					t.Fatalf("%s: slot(%d, %d) = %d for a non-neighbour", g.Name(), id, v, mc.slot(id, v))
				}
			}
		}
	}
}

func TestMachineCommitFlow(t *testing.T) {
	mc, sts := testMachine(t)
	a, b := sts[0], sts[1]

	out := mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 10)
	if !out.Proposed || out.Msg.Kind != MsgLock {
		t.Fatalf("initiate: %+v", out)
	}
	lock := out.Msg
	if lock.Epoch != 1 || lock.X != 1 || !a.Await.Live() || mc.AwaitDeadline(a) != 110 {
		t.Fatalf("lock %+v await %+v", lock, a.Await)
	}

	out = mc.Deliver(b, lock, 20, false)
	if !out.PendCreated || out.Msg.Kind != MsgPropose {
		t.Fatalf("lock delivery: %+v", out)
	}
	prop := out.Msg
	if prop.X != 2 { // vanilla delta (5-1)/2
		t.Errorf("proposed delta %g, want 2", prop.X)
	}
	if !b.Pend.Live() || b.Pend.ResendNs != 60 {
		t.Fatalf("pend %+v", b.Pend)
	}

	out = mc.Deliver(a, prop, 30, false)
	if !out.Applied || out.LatencyNs != 20 || out.Msg.Kind != MsgCommit {
		t.Fatalf("propose delivery: %+v", out)
	}
	if a.X != 3 || a.Await.Live() || mc.Watermark(a, 1) != 1 {
		t.Fatalf("initiator state after apply: %+v", a)
	}

	out = mc.Deliver(b, out.Msg, 40, false)
	if !out.Committed || b.X != 3 || b.Pend.Live() {
		t.Fatalf("commit delivery: %+v, responder %+v", out, b)
	}
	if s := a.X + b.X + sts[2].X; s != 6 {
		t.Errorf("sum %g, want 6", s)
	}
}

func TestMachineAbortAndDuplicatePaths(t *testing.T) {
	mc, sts := testMachine(t)
	a, b := sts[0], sts[1]

	// Busy responder NACKs; draining responder NACKs.
	lock := mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 0).Msg
	mc.Deliver(b, lock, 0, false)
	lock2 := mc.Initiate(sts[2], halfEdgeTo(t, mc, 2, 1), 0).Msg
	if out := mc.Deliver(b, lock2, 0, false); out.Msg.Kind != MsgNack {
		t.Fatalf("busy responder: %+v", out)
	}

	// Timeout aborts the initiation; the late proposal is then refused and
	// the responder rolls back with no value change anywhere.
	if out := mc.TimeoutAwait(a); !out.Aborted || a.Await.Live() {
		t.Fatalf("timeout: %+v", out)
	}
	prop := mc.proposal(b)
	out := mc.Deliver(a, prop, 0, false)
	if out.Applied || out.Msg.Kind != MsgNack {
		t.Fatalf("stale proposal: %+v", out)
	}
	if out := mc.Deliver(b, out.Msg, 0, false); !out.PendDropped || b.Pend.Live() || b.X != 5 {
		t.Fatalf("rollback: %+v responder %+v", out, b)
	}

	// Duplicate proposal after a successful apply is re-committed without
	// reapplying.
	lock = mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 0).Msg
	prop = mc.Deliver(b, lock, 0, false).Msg
	mc.Deliver(a, prop, 0, false)
	xa := a.X
	out = mc.Deliver(a, prop, 0, false) // retransmitted duplicate
	if a.X != xa || out.Msg.Kind != MsgCommit || out.Applied {
		t.Fatalf("duplicate proposal: %+v", out)
	}

	// Stale-epoch messages are dropped outright.
	stale := lock
	stale.Epoch = 99
	if out := mc.Deliver(b, stale, 0, false); out.Msg.Kind != 0 || out.PendCreated {
		t.Fatalf("stale epoch: %+v", out)
	}

	// Seq 0 names no exchange (Await and Pend use it as "none"): a LOCK
	// carrying it is malformed input and must not leave a held proposal
	// that reads as unlocked.
	fresh := &NodeState{ID: 1, X: 5}
	zero := lock
	zero.Seq = 0
	if out := mc.Deliver(fresh, zero, 0, false); out.Msg.Kind != 0 || out.PendCreated || fresh.Pend != (PendState{}) {
		t.Fatalf("seq-0 LOCK: %+v responder %+v", out, fresh)
	}
}

func TestMachineCrashRecoverSemantics(t *testing.T) {
	mc, sts := testMachine(t)
	a, b := sts[0], sts[1]

	// Crash aborts a volatile initiation.
	mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 0)
	if out := mc.Crash(a); !out.Aborted || a.Await.Live() {
		t.Fatalf("crash with await: %+v", out)
	}

	// A held proposal survives a crash and retransmits on recovery.
	lock := mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 0).Msg
	mc.Deliver(b, lock, 0, false)
	if out := mc.Crash(b); out.Aborted || !b.Pend.Live() {
		t.Fatalf("crash with pend: %+v state %+v", out, b)
	}
	mc.Recover(b, 500)
	if b.Pend.ResendNs != 500 {
		t.Fatalf("recovery did not make the held proposal due: %+v", b.Pend)
	}
	if out := mc.Resend(b, 500); out.Msg.Kind != MsgPropose {
		t.Fatalf("post-recovery resend: %+v", out)
	}
}

// TestMachineStepsAllocateNothing pins the machine's steps to zero heap
// allocations: a step returns its one message by value and keeps its lock
// state inline, so only a node's first apply (its watermark slots) may
// allocate.
func TestMachineStepsAllocateNothing(t *testing.T) {
	mc, sts := testMachine(t)
	a, b, c := sts[0], sts[1], sts[2]
	ab, cb := halfEdgeTo(t, mc, 0, 1), halfEdgeTo(t, mc, 2, 1)
	commit := func() {
		lock := mc.Initiate(a, ab, 0).Msg
		prop := mc.Deliver(b, lock, 1, false).Msg
		mc.Deliver(b, mc.Deliver(a, prop, 2, false).Msg, 3, false)
	}
	commit() // a's first apply allocates its watermark slots
	paths := []struct {
		name string
		run  func()
	}{
		{"Initiate-LOCK-PROPOSE-COMMIT", commit},
		{"NACK", func() {
			lock := mc.Initiate(a, ab, 0).Msg
			mc.Deliver(b, lock, 1, false)
			busy := mc.Deliver(b, mc.Initiate(c, cb, 2).Msg, 3, false).Msg
			mc.Deliver(c, busy, 4, false) // c's initiation aborts
			mc.TimeoutAwait(a)
			refused := mc.Deliver(a, mc.proposal(b), 5, false).Msg
			mc.Deliver(b, refused, 6, false) // b rolls its proposal back
		}},
		{"Timeout-Resend-Crash-Recover", func() {
			lock := mc.Initiate(a, ab, 0).Msg
			mc.Deliver(b, lock, 1, false)
			mc.Resend(b, 2)
			mc.Crash(b)
			mc.Recover(b, 3)
			mc.TimeoutAwait(a)
			mc.Deliver(b, mc.Deliver(a, mc.Resend(b, 4).Msg, 5, false).Msg, 6, false)
		}},
	}
	for _, p := range paths {
		if n := testing.AllocsPerRun(100, p.run); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", p.name, n)
		}
		if a.Locked() || b.Locked() || c.Locked() {
			t.Fatalf("%s left a node locked: %+v %+v %+v", p.name, a, b, c)
		}
	}
}
