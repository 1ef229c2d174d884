package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
	"sparsecut/internal/leakcheck"
	"sparsecut/internal/rng"
)

// TestShardLockstepEquivalence is the divergence test that licenses the
// live driver of the protocol: the shard loops record every protocol event
// they feed the pure machine via the runtime tap, and replaying that
// stream through fresh NodeStates must reproduce byte-identical StepOuts
// and exactly the runtime's final values. Any state the shard loops
// mutated outside the machine, or any hidden input the machine read, would
// diverge here. On top of the replay this test asserts:
//
//   - no stale commits, by provenance: at every replayed commit the
//     initiator's replayed state must already have applied that exact
//     (initiator, seq) — the tap order respects causality (a send is
//     tapped before its delivery can be), so the check is sound;
//   - flight equivalence: re-emitting the replayed stream through the
//     shared FlightEmitter must stitch into the same span set as the live
//     shard capture, span by span (the sharded loops add no records and
//     lose none relative to the canonical step→record mapping).
func TestShardLockstepEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashes []CrashEvent
	}{
		{"healthy", nil},
		{"with crash schedule", []CrashEvent{{Node: 0, At: 2, Recover: 5}, {Node: 7, At: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _, x0 := dumbbellCase(t)
			rec := flight.New(g.NumNodes(), 1<<14)
			rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
				ClusterConfig: ClusterConfig{
					TimeScale: 4 * time.Millisecond, Seed: 11,
					Crashes: tc.crashes, Flight: rec,
				},
				Shards: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var events []nodeEvent
			rt.tap = func(ev nodeEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}
			if err := rt.Run(context.Background(), 10); err != nil {
				t.Fatal(err)
			}
			if rt.Exchanges() == 0 {
				t.Fatal("no exchanges committed; lockstep test needs traffic")
			}

			// Replay: fresh states, same machine parameters, recorded
			// inputs; re-emit flight records through the shared emitter.
			mc := Machine{
				G:             g,
				Rule:          NewVanillaRule(),
				Epoch:         rt.epoch,
				LockTimeoutNs: rt.lockTimeout.Nanoseconds(),
				ResendEveryNs: rt.resendEvery.Nanoseconds(),
			}
			rec2 := flight.New(g.NumNodes(), 1<<14)
			states := make([]*NodeState, g.NumNodes())
			for i := range states {
				states[i] = &NodeState{ID: i, X: x0[i]}
			}
			for k, ev := range events {
				st := states[ev.node]
				pre := FlightPreOf(st)
				var out StepOut
				switch ev.kind {
				case stepDeliver:
					out = mc.Deliver(st, ev.msg, ev.nowNs, ev.draining)
				case stepInitiate:
					out = mc.Initiate(st, ev.he, ev.nowNs)
				case stepTimeout:
					out = mc.TimeoutAwait(st)
				case stepResend:
					out = mc.Resend(st, ev.nowNs)
				case stepCrash:
					out = mc.Crash(st)
				case stepRecover:
					out = mc.Recover(st, ev.nowNs)
				}
				if !reflect.DeepEqual(out, ev.out) {
					t.Fatalf("event %d (node %d, kind %d): replayed StepOut %+v diverged from live %+v",
						k, ev.node, ev.kind, out, ev.out)
				}
				if out.Committed {
					// Ghost provenance: the pend this commit resolved names
					// the initiator and seq; that initiator must already
					// have applied it.
					if p := pre.pend; !p.Live() || mc.Watermark(states[p.To], ev.node) < p.Seq {
						t.Fatalf("event %d: node %d committed seq %d before initiator %d applied it (stale commit)",
							k, ev.node, p.Seq, p.To)
					}
				}
				emitStepRec(rec2, ev.node, ev.kind, ev.msg, out, pre, ev.nowNs)
				if out.Msg.Kind != 0 {
					FlightEmitter{Rec: rec2}.Send(ev.node, out.Msg, ev.nowNs)
				}
			}
			// The settle loop only acts on a dead transport; on this healthy
			// run the replayed machine values must equal Values() exactly.
			got := rt.Values()
			for i, st := range states {
				if st.X != got[i] {
					t.Errorf("node %d: replayed value %v != runtime value %v", i, st.X, got[i])
				}
			}

			compareSpanSets(t, flight.Stitch(rec.Snapshot()), flight.Stitch(rec2.Snapshot()))
			t.Logf("replayed %d events across %d nodes on %d shards, %d exchanges",
				len(events), g.NumNodes(), rt.Shards(), rt.Exchanges())
		})
	}
}

// compareSpanSets asserts that live and replayed flight captures stitch
// into the same spans: same (Init, Seq) keys, and per span the same
// responder, edge, outcome and protocol-event multiset. Multisets, not
// sequences: concurrent records from different shards may reach the
// recorder in either order. Network-layer records (EvNetDrop/EvNetDup) are
// excluded — they are emitted by the transport/mailbox layer, which the
// protocol-step tap does not see.
func compareSpanSets(t *testing.T, live, replayed *flight.SpanSet) {
	t.Helper()
	sig := func(set *flight.SpanSet) map[string]string {
		m := make(map[string]string, len(set.Spans))
		for _, sp := range set.Spans {
			kinds := make([]int, 0, len(sp.Events))
			for _, e := range sp.Events {
				if e.Kind == flight.EvNetDrop || e.Kind == flight.EvNetDup {
					continue
				}
				kinds = append(kinds, int(e.Kind))
			}
			sort.Ints(kinds)
			m[fmt.Sprintf("%d/%d", sp.Init, sp.Seq)] =
				fmt.Sprintf("resp=%d edge=%d outcome=%s kinds=%v", sp.Resp, sp.Edge, sp.Outcome, kinds)
		}
		return m
	}
	ls, rs := sig(live), sig(replayed)
	for k, v := range ls {
		if rv, ok := rs[k]; !ok {
			t.Errorf("span %s in live capture but not in replay", k)
		} else if v != rv {
			t.Errorf("span %s diverged:\n  live:   %s\n  replay: %s", k, v, rv)
		}
	}
	for k := range rs {
		if _, ok := ls[k]; !ok {
			t.Errorf("span %s in replay but not in live capture", k)
		}
	}
	looseKinds := func(set *flight.SpanSet) map[flight.EventKind]int {
		m := map[flight.EventKind]int{}
		for _, r := range set.Loose {
			if r.Kind == flight.EvNetDrop || r.Kind == flight.EvNetDup {
				continue
			}
			m[r.Kind]++
		}
		return m
	}
	if l, r := looseKinds(live), looseKinds(replayed); !reflect.DeepEqual(l, r) {
		t.Errorf("loose records diverged: live %v, replay %v", l, r)
	}
}

// TestShardSumConservedHostileTransport drives the runtime over a hostile
// stack — 2ms random delays, then 25% Bernoulli loss — plus a crash
// schedule, and asserts the protocol's core promise end to end: exact sum
// conservation and a balanced exchange ledger at quiescence.
func TestShardSumConservedHostileTransport(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	delay, err := NewDelayTransport(NewChanTransport(8*g.NumNodes()), 2*time.Millisecond, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewDropTransport(delay, 0.25, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	crashes := []CrashEvent{
		{Node: 1, At: 2, Recover: 5},
		{Node: 8, At: 3}, // down until drain
	}
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{
			TimeScale: 4 * time.Millisecond, Seed: 1, Transport: tr,
			LockTimeout: 10 * time.Millisecond, Crashes: crashes,
		},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if rt.Exchanges() == 0 {
		t.Fatal("no exchanges committed")
	}
	if rt.Aborted() == 0 {
		t.Error("25% drop with 2ms delays produced no aborts")
	}
	if got, want := rt.Crashes(), int64(len(crashes)); got != want {
		t.Errorf("Crashes() = %d, want %d", got, want)
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g under loss, delay and crashes", drift)
	}
	assertLedger(t, rt)
}

// assertLedger checks the exchange ledger a drained healthy-transport run
// must balance: every initiation resolved exactly once (applied or
// aborted), and every applied initiator half was committed by its
// responder.
func assertLedger(t *testing.T, rt *ShardRuntime) {
	t.Helper()
	if rt.Proposed() != rt.Applied()+rt.Aborted() {
		t.Errorf("ledger: proposed %d != applied %d + aborted %d",
			rt.Proposed(), rt.Applied(), rt.Aborted())
	}
	if rt.Applied() != rt.Exchanges() {
		t.Errorf("ledger: applied %d != committed %d after settle",
			rt.Applied(), rt.Exchanges())
	}
}

// TestShardDirectPathConverges is the direct-path (no transport) sanity
// run: traffic flows shard-to-shard through the batched mailboxes, the
// ledger balances, and the exchange rule actually averages.
func TestShardDirectPathConverges(t *testing.T) {
	g := graph.Cycle(64)
	x0 := make([]float64, g.NumNodes())
	for i := range x0 {
		x0[i] = float64(i % 2 * 10)
	}
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: 2 * time.Millisecond, Seed: 5},
		Shards:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var0 := rt.Variance()
	if err := rt.Run(context.Background(), 15); err != nil {
		t.Fatal(err)
	}
	if rt.Exchanges() == 0 {
		t.Fatal("no exchanges on the direct path")
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g", drift)
	}
	if v := rt.Variance(); v >= var0 {
		t.Errorf("variance did not decrease: %g -> %g", var0, v)
	}
	if rt.Congested() != 0 {
		t.Errorf("unexpected mailbox congestion: %d drops", rt.Congested())
	}
	assertLedger(t, rt)
}

// TestShardRuntimeOverTCP runs the runtime across real sockets speaking
// the binary wire codec: one transport address per shard, every message
// routed by its Via shard override. This is the multi-process sharding
// shape — S mailboxes serving N >> S nodes. The assertions target
// transport plumbing (delivery, framing, clean reuse of cached
// connections), not convergence speed: on a loaded machine the socket
// round trips shrink the effective exchange rate.
func TestShardRuntimeOverTCP(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		g, _, x0 := dumbbellCase(t)
		tr, err := NewTCPTransport(4)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
			ClusterConfig: ClusterConfig{TimeScale: 8 * time.Millisecond, Seed: 2, Transport: tr},
			Shards:        4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(context.Background(), 8); err != nil {
			t.Fatal(err)
		}
		if rt.Exchanges() == 0 {
			t.Fatal("no exchanges committed over TCP")
		}
		if drift := math.Abs(rt.Mean()); drift > 1e-9 {
			t.Errorf("mean drifted to %g over TCP", rt.Mean())
		}
	})
}

// TestShardRuntimeShutdownNoLeak extends the repository's leak discipline
// to the sharded runtime: three consecutive runs on the same runtime (the
// reuse contract) must leave no goroutines or timers behind.
func TestShardRuntimeShutdownNoLeak(t *testing.T) {
	base := leakcheck.Snapshot()
	g, _, x0 := dumbbellCase(t)
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: 2 * time.Millisecond, Seed: 3},
		Shards:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		if err := rt.Run(context.Background(), 4); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
			t.Fatalf("run %d: sum drifted by %g", run, drift)
		}
	}
	base.Check(t)
}

// TestShardRuntimeContextCancel cancels an Algorithm A run mid-flight: Run
// must drain to quiescence within a bounded time (sum still exactly
// conserved), report context.Canceled, unwind every shard goroutine, and
// leave the runtime usable for another run.
func TestShardRuntimeContextCancel(t *testing.T) {
	g, part, x0 := dumbbellCase(t)
	rule, err := NewSparseCutRule(part, part.CutEdges()[0], 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Snapshot()
	rt, err := NewShardRuntime(g, x0, rule, ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: 4 * time.Millisecond, Seed: 9},
		Shards:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = rt.Run(ctx, 1e6) // nominally ~4000s of wall time; the cancel cuts it short
	// Run's typed-error contract: a caller-cancelled run surfaces ctx.Err()
	// itself, after the same full drain a horizon shutdown performs.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled Run took %v to shut down", elapsed)
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g across a cancelled run", drift)
	}
	base.Check(t)
	if err := rt.Run(context.Background(), 1); err != nil {
		t.Errorf("Run after cancelled run: %v", err)
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g across the run after the cancel", drift)
	}
	base.Check(t)
}

// TestShardRuntimeSendAfterTransportClose closes the transport under a
// running sharded runtime, for every transport implementation: the first
// failed send must surface as a *SendError wrapping ErrClosed, the run
// must stop draining (not hang on unresolvable exchanges), and nothing
// may leak. The DropTransport is built with rate 0 so sends always reach
// the closed inner layer rather than being absorbed as loss.
func TestShardRuntimeSendAfterTransportClose(t *testing.T) {
	build := []struct {
		name string
		make func(t *testing.T) Transport
	}{
		{"chan", func(t *testing.T) Transport { return NewChanTransport(256) }},
		{"drop", func(t *testing.T) Transport {
			tr, err := NewDropTransport(NewChanTransport(256), 0, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"delay", func(t *testing.T) Transport {
			tr, err := NewDelayTransport(NewChanTransport(256), 100*time.Microsecond, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"tcp", func(t *testing.T) Transport {
			tr, err := NewTCPTransport(3)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	}
	for _, b := range build {
		b := b
		t.Run(b.name, func(t *testing.T) {
			base := leakcheck.Snapshot()
			g, _, x0 := dumbbellCase(t)
			tr := b.make(t)
			rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
				ClusterConfig: ClusterConfig{TimeScale: 2 * time.Millisecond, Seed: 4, Transport: tr},
				Shards:        3,
			})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				time.Sleep(5 * time.Millisecond)
				tr.Close()
			}()
			err = rt.Run(context.Background(), 1000)
			if err == nil {
				t.Fatal("Run succeeded across a transport death")
			}
			var se *SendError
			if !errors.As(err, &se) || !errors.Is(err, ErrClosed) {
				t.Fatalf("Run returned %v, want a *SendError wrapping ErrClosed", err)
			}
			tr.Close() // idempotent; ensures full unwind before the leak check
			base.Check(t)
		})
	}
}

// TestShardSettleWatermarkEquality pins the settle pass's applied test to
// watermark equality. After a transport death, a held proposal whose seq is
// *below* its initiator's watermark is a resurrected aborted LOCK (a
// reordering transport delivered it after a later exchange with the same
// pair committed); the initiator refused it and never applied it, so
// settle must discard it. Committing it, as a ">=" test does, moves the
// responder by -delta alone and breaks the sum.
func TestShardSettleWatermarkEquality(t *testing.T) {
	cases := []struct {
		name      string
		watermark uint64
		commits   bool
	}{
		{"initiator applied this proposal", 3, true},
		{"resurrected proposal below the watermark", 5, false},
		{"initiator never applied", 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, _, x0 := dumbbellCase(t)
			rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			he := g.Neighbors(0)[0]
			init, resp := rt.stateOf(0), rt.stateOf(int(he.Peer))
			const seq, delta = 3, 0.25
			// The initiator's half: applied (+delta) iff its watermark for
			// this responder equals the held proposal's seq.
			init.Seq = 5
			if c.watermark != 0 {
				rt.mc.noteApplied(init, resp.ID, c.watermark)
			}
			if c.commits {
				init.X += delta
			}
			resp.Pend = PendState{Seq: seq, Delta: delta, To: 0, Edge: he.Edge}
			before := init.X + resp.X

			rt.settle()

			if resp.Pend.Live() {
				t.Fatal("settle left the proposal held")
			}
			wantCommits, wantSum := int64(0), before
			if c.commits {
				wantCommits, wantSum = 1, before-delta
			}
			if got := rt.Exchanges(); got != wantCommits {
				t.Errorf("settle committed %d exchanges, want %d", got, wantCommits)
			}
			// Either way the pair's sum is back at its pre-exchange value.
			if after := init.X + resp.X; after != wantSum {
				t.Errorf("pair sum %v after settle, want %v", after, wantSum)
			}
		})
	}
}

// TestShardRuntimeValidation pins the constructor's input checking.
func TestShardRuntimeValidation(t *testing.T) {
	g := graph.Cycle(8)
	x0 := make([]float64, 8)
	valid := func() ShardRuntimeConfig {
		return ShardRuntimeConfig{ClusterConfig: ClusterConfig{TimeScale: time.Millisecond}}
	}
	with := func(f func(*ShardRuntimeConfig)) ShardRuntimeConfig {
		c := valid()
		f(&c)
		return c
	}
	edgeless, err := graph.NewBuilder(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		x0   []float64
		rule Rule
		cfg  ShardRuntimeConfig
	}{
		{"nil graph", nil, x0, VanillaRule{}, valid()},
		{"edgeless graph", edgeless, x0[:2], VanillaRule{}, valid()},
		{"length mismatch", g, x0[:3], VanillaRule{}, valid()},
		{"nil rule", g, x0, nil, valid()},
		{"negative shards", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) { c.Shards = -1 })},
		{"negative tick", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) { c.TimerTick = -time.Millisecond })},
		{"negative time scale", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) { c.TimeScale = -time.Second })},
		{"negative lock timeout", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) { c.LockTimeout = -time.Millisecond })},
		{"negative resend period", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) { c.ResendEvery = -time.Millisecond })},
		{"negative mailbox cap", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) { c.MailboxCap = -1 })},
		{"crash node out of range", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) {
			c.Crashes = []CrashEvent{{Node: 99, At: 1}}
		})},
		{"infinite crash time", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) {
			c.Crashes = []CrashEvent{{Node: 1, At: math.Inf(1)}}
		})},
		{"recover before crash", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) {
			c.Crashes = []CrashEvent{{Node: 1, At: 2, Recover: 1}}
		})},
		{"overlapping windows", g, x0, VanillaRule{}, with(func(c *ShardRuntimeConfig) {
			c.Crashes = []CrashEvent{{Node: 1, At: 1, Recover: 5}, {Node: 1, At: 3, Recover: 7}}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewShardRuntime(tc.g, tc.x0, tc.rule, tc.cfg); err == nil {
				t.Error("constructor accepted an invalid configuration")
			}
		})
	}

	// Shard-count clamping: more shards than nodes must degrade to one
	// node per shard, not fail or leave empty loops.
	rt, err := NewShardRuntime(g, x0, VanillaRule{}, ShardRuntimeConfig{Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Shards(); got != 8 {
		t.Errorf("Shards() = %d with 8 nodes, want 8", got)
	}
	if err := rt.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	// Before any run the accessors report the initial vector: the
	// dumbbell's cut indicator has variance exactly 1.
	dg, _, dx0 := dumbbellCase(t)
	rt, err = NewShardRuntime(dg, dx0, VanillaRule{}, valid())
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Values(); len(got) != dg.NumNodes() {
		t.Errorf("Values() length %d, want %d", len(got), dg.NumNodes())
	}
	if v := rt.Variance(); math.Abs(v-1) > 1e-12 {
		t.Errorf("pre-run variance %g, want 1", v)
	}
}

// TestShardRuntimeRunGuards pins Run's argument and reentrancy checking.
func TestShardRuntimeRunGuards(t *testing.T) {
	g := graph.Cycle(8)
	x0 := make([]float64, 8)
	rt, err := NewShardRuntime(g, x0, VanillaRule{}, ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: time.Millisecond},
		Shards:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if err := rt.Run(context.Background(), d); err == nil {
			t.Errorf("Run accepted duration %v", d)
		}
	}
}
