package dist

import (
	"context"
	"math"
	"testing"
	"time"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/rng"
)

// TestInstrumentedLossyRun is the telemetry acceptance check: a runtime on
// a lossy, delayed transport with ClusterConfig.Metrics set must export
// nonzero exchange, abort, message and transport-loss counters, a
// populated latency histogram, and convergence gauges consistent with the
// runtime's own accessors — while preserving the sum invariant exactly as
// the uninstrumented runtime does. Run under -race this also proves the
// shard loops and the snapshot reader do not race on the telemetry
// plane.
func TestInstrumentedLossyRun(t *testing.T) {
	g, part, x0 := dumbbellCase(t)
	rule, err := NewSparseCutRule(part, part.CutEdges()[0], 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	delay, err := NewDelayTransport(NewChanTransport(8*g.NumNodes()), 2*time.Millisecond, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewDropTransport(delay, 0.2, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rt, err := NewShardRuntime(g, x0, rule, ShardRuntimeConfig{ClusterConfig: ClusterConfig{
		TimeScale: 8 * time.Millisecond, Seed: 1, Transport: tr,
		LockTimeout: 20 * time.Millisecond,
		Metrics:     reg,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot concurrently with the run — the live-monitoring use case.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				_ = reg.Snapshot()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// How contended the lock protocol gets is decided by wall-clock
	// scheduling, so one leg occasionally quiesces with aborts only. Run is
	// resumable: keep adding legs (bounded) until an exchange commits and
	// the transport has exercised both loss modes.
	var runErr error
	for leg := 0; leg < 10; leg++ {
		if runErr = rt.Run(context.Background(), 10); runErr != nil {
			break
		}
		if rt.Exchanges() > 0 && tr.Dropped() > 0 && delay.Delayed() > 0 {
			break
		}
	}
	done <- struct{}{}
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"dist.exchange.proposed",
		"dist.exchange.committed",
		"dist.exchange.aborted",
		"dist.msg.sent.lock",
		"dist.msg.sent.propose",
		"dist.msg.sent.commit",
		"dist.transport.dropped",
		"dist.transport.delayed",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is zero after a lossy run (snapshot: %+v)", name, snap.Counters)
		}
	}
	if got, want := snap.Counters["dist.exchange.committed"], rt.Exchanges(); got != want {
		t.Errorf("committed counter %d != Exchanges() %d", got, want)
	}
	if got, want := snap.Counters["dist.exchange.aborted"], rt.Aborted(); got != want {
		t.Errorf("aborted counter %d != Aborted() %d", got, want)
	}
	// Initiations split exactly into commits and aborts at quiescence.
	if p, c, a := snap.Counters["dist.exchange.proposed"], snap.Counters["dist.exchange.committed"], snap.Counters["dist.exchange.aborted"]; p != c+a {
		t.Errorf("proposed %d != committed %d + aborted %d", p, c, a)
	}
	// The designated edge is one of ~30 and its LOCKs face drops, delays
	// and busy responders, so a short run may legitimately consume zero
	// epoch ticks — the telemetry contract is equality with the rule's own
	// counter, whatever the count.
	if got, want := snap.Counters["dist.rule.ticks"], rule.Ticks(); got != want {
		t.Errorf("rule tick counter %d != Ticks() %d", got, want)
	}
	lat := snap.Histograms["dist.exchange.latency_ns"]
	if lat.Count != snap.Counters["dist.exchange.committed"] {
		t.Errorf("latency histogram has %d samples, want one per committed exchange (%d)",
			lat.Count, snap.Counters["dist.exchange.committed"])
	}
	if lat.Count > 0 && lat.Sum <= 0 {
		t.Error("latency histogram sum not positive")
	}

	// The live gauges must agree with the runtime's own post-run view.
	if got, want := snap.Gauges["dist.progress.mean"], rt.Mean(); math.Abs(got-want) > 1e-12 {
		t.Errorf("live mean gauge %v != Mean() %v", got, want)
	}
	ratio := snap.Gauges["dist.progress.var_ratio"]
	if ratio < 0 || ratio != ratio {
		t.Errorf("var_ratio gauge %v invalid", ratio)
	}
	// Telemetry must not perturb the protocol's sum invariant.
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g with telemetry enabled", drift)
	}
}

// TestConservationUnderCrashes is the ledger check with fail-stop faults in
// the mix: with a crash schedule injected, every initiation must still be
// accounted for at quiescence — proposed == committed + aborted — because
// the drain force-recovers downed nodes and settles every in-flight
// exchange (a crashed initiator's outstanding proposal counts as an
// abort). The value sum stays exact for the same reason.
func TestConservationUnderCrashes(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	reg := metrics.NewRegistry()
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{ClusterConfig: ClusterConfig{
		TimeScale: 4 * time.Millisecond, Seed: 11, Metrics: reg,
		Crashes: []CrashEvent{
			{Node: 0, At: 1, Recover: 3},
			{Node: 7, At: 2, Recover: 5},
			{Node: 3, At: 4}, // down until the drain force-recovers it
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	if rt.Crashes() != 3 {
		t.Fatalf("crash schedule fired %d times, want 3", rt.Crashes())
	}
	if rt.Exchanges() == 0 {
		t.Fatal("no exchanges committed around the crashes")
	}
	snap := reg.Snapshot()
	if snap.Counters["dist.node.crashes"] != 3 {
		t.Errorf("crash counter %d, want 3", snap.Counters["dist.node.crashes"])
	}
	p := snap.Counters["dist.exchange.proposed"]
	c := snap.Counters["dist.exchange.committed"]
	a := snap.Counters["dist.exchange.aborted"]
	if p != c+a {
		t.Errorf("ledger broken under crashes: proposed %d != committed %d + aborted %d", p, c, a)
	}
	if p == 0 {
		t.Error("no initiations proposed")
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g across a crash-faulted run", drift)
	}
}

// TestInstrumentedTCPBytes checks the TCP transport's wire-byte and
// socket-call counters flow into the registry, on a lossy shard run busy
// enough that each loop iteration has several messages to send: the shard
// loops batch them, so they make fewer socket writes than they send
// messages, and fewer than half as many as reach the socket layer.
func TestInstrumentedTCPBytes(t *testing.T) {
	g, part, err := graph.TorusDumbbell(400, 4)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	const shards = 2
	tcp, err := NewTCPTransport(shards)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewDropTransport(tcp, 0.05, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := metrics.NewRegistry()
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: 40 * time.Millisecond, Seed: 1, Transport: tr, Metrics: reg},
		Shards:        shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"dist.transport.tcp_bytes_out",
		"dist.transport.tcp_bytes_in",
		"dist.transport.tcp_writes",
		"dist.transport.tcp_reads",
		"dist.transport.dropped",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is zero after a lossy TCP run", name)
		}
	}
	if rt.Exchanges() == 0 {
		t.Error("no exchanges committed over TCP")
	}
	var sent int64
	for _, k := range []string{"lock", "propose", "nack", "commit"} {
		sent += snap.Counters["dist.msg.sent."+k]
	}
	// Loss alone keeps writes below messages sent; batching must keep them
	// well below the messages that reached the socket layer.
	kept := sent - snap.Counters["dist.transport.dropped"]
	if w := snap.Counters["dist.transport.tcp_writes"]; w >= sent || 2*w >= kept {
		t.Errorf("%d socket writes for %d messages sent (%d past the loss layer): the shard loops did not batch", w, sent, kept)
	}
}

// TestDisabledMetricsIsNilSafe runs the uninstrumented path (the default)
// and asserts nothing is recorded and nothing panics — the hot-path hooks
// must degrade to no-ops.
func TestDisabledMetricsIsNilSafe(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{ClusterConfig: ClusterConfig{
		TimeScale: 2 * time.Millisecond, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if rt.Exchanges() == 0 {
		t.Error("no exchanges committed")
	}
	if rt.met.proposed != nil || rt.met.live != nil || rt.met.latency != nil {
		t.Error("telemetry plane populated without a registry")
	}
}
