package sparsecut

// Micro-benchmarks of the simulator's hot paths, run with
//
//	go test -run '^$' -bench . -benchmem
//
// The experiments' own costs are perfbench's report.E*.self_s layer rows.

import (
	"math"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
	"sparsecut/internal/spectral"
)

// BenchmarkSimulatorVanillaTick measures raw event throughput of the
// event-driven simulator running vanilla gossip on a dumbbell — the fused
// kernel path (RunEvents), which is what Simulate and the averaging-time
// estimator drive.
func BenchmarkSimulatorVanillaTick(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunEvents(int64(b.N))
}

// BenchmarkSimulatorVanillaTickLegacy measures the same workload through
// the per-event Run loop (one TickEdgeVar per event with eager moments,
// closure stop condition) — the pre-kernel hot path, kept for comparison.
func BenchmarkSimulatorVanillaTickLegacy(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.Run(sim.MaxEvents(int64(b.N)))
}

// BenchmarkSimulatorTrackedVanilla measures the averaging-time estimator's
// per-event cost: the fused tracked loop with one moment read per event.
func BenchmarkSimulatorTrackedVanilla(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// StopLevel -1 is unreachable, so the loop runs to MaxTime; at total
	// rate |E| that horizon yields ~b.N events.
	eng.RunTracked(sim.Tracked{ExceedLevel: 0, StopLevel: -1, Quiet: 0, MaxTime: float64(b.N) / float64(g.NumEdges())})
	b.ReportMetric(float64(eng.Events())/float64(b.N), "events/op")
}

// BenchmarkSimulatorHeterogeneousAlias measures the fused path with
// per-edge rates drawn from [0.5, 2): one Walker alias pick per event.
func BenchmarkSimulatorHeterogeneousAlias(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	rates := make([]float64, g.NumEdges())
	for i := range rates {
		rates[i] = 0.5 + 1.5*r.Float64()
	}
	eng, err := sim.NewEngine(g, alg, sim.WithRates(rates))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunEvents(int64(b.N))
}

// BenchmarkSimulatorVanillaBatchBridged measures the replica-batched
// untracked hot path: 16 replicas in SoA lockstep, one uniform pick per
// event, one Gamma bridge draw per 256-event chunk.
func BenchmarkSimulatorVanillaBatchBridged(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	const replicas = 16
	ens, err := gossip.NewVanillaEnsemble(g, gossip.CutIndicator(part), replicas)
	if err != nil {
		b.Fatal(err)
	}
	root := rng.New(1)
	streams := make([]*rng.RNG, replicas)
	for i := range streams {
		streams[i] = root.Split()
	}
	eng, err := sim.NewBatchEngine(g, ens, streams)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunEvents((int64(b.N) + replicas - 1) / replicas)
}

// BenchmarkSimulatorVanillaBatchTracked measures the replica-batched
// averaging-time loop: eager per-event moments and exceedance compares on
// the SoA rows, chunk-bridged clocks.
func BenchmarkSimulatorVanillaBatchTracked(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	const replicas = 16
	ens, err := gossip.NewVanillaEnsemble(g, gossip.CutIndicator(part), replicas)
	if err != nil {
		b.Fatal(err)
	}
	root := rng.New(1)
	streams := make([]*rng.RNG, replicas)
	for i := range streams {
		streams[i] = root.Split()
	}
	eng, err := sim.NewBatchEngine(g, ens, streams)
	if err != nil {
		b.Fatal(err)
	}
	var0 := ens.ReplicaVariance(0)
	b.ResetTimer()
	eng.RunTracked(sim.Tracked{
		ExceedLevel: var0 * math.Exp(-2),
		StopLevel:   -1, // unreachable: run every replica to the horizon
		MaxTime:     float64(b.N) / float64(replicas*g.NumEdges()),
	})
}

// BenchmarkSimulatorPerEdgeHeap measures the heap-based per-edge-clock
// scheduler on the same workload.
func BenchmarkSimulatorPerEdgeHeap(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg, sim.WithScheduler(sim.PerEdgeClocks))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.Run(sim.MaxEvents(int64(b.N)))
}

// BenchmarkAlgorithmATick measures Algorithm A's per-event cost including
// the O(1) variance tracking.
func BenchmarkAlgorithmATick(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := NewAlgorithmA(g, gossip.CutIndicator(part), WithPartition(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunEvents(int64(b.N))
}

// BenchmarkLambda2Dumbbell measures the spectral cut-analysis cost that
// Algorithm A's auto-configuration pays once per graph.
func BenchmarkLambda2Dumbbell(b *testing.B) {
	g, _, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spectral.Lambda2(g, spectral.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
