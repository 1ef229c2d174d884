package avgtime

import (
	"math"
	"reflect"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
	"sparsecut/internal/stats"
)

// vanillaEnsembleFactory adapts gossip.NewVanillaEnsemble to the batched
// estimator's factory signature.
func vanillaEnsembleFactory(g *graph.Graph, x0 []float64) EnsembleFactory {
	return func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
		return gossip.NewVanillaEnsemble(g, x0, replicas)
	}
}

// The batched estimator's Result must be byte-identical for any
// BatchWidth: trial streams derive from the seed in trial order, never
// from the grouping.
func TestEstimateBatchedWidthDeterminism(t *testing.T) {
	g, part, err := graph.Dumbbell(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	var results []Result
	for _, width := range []int{0, 1, 3, 64} {
		res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{
			Trials:       9,
			Seed:         11,
			MarginFactor: 1,
			BatchWidth:   width,
		})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("results diverged between widths: %+v vs %+v", results[0], results[i])
		}
	}
	if results[0].Tav <= 0 {
		t.Errorf("expected positive Tav, got %v", results[0].Tav)
	}
}

// The time-bridged batched estimator must sample the same last-exceedance
// distribution as the legacy per-event path: two-sample KS test of the
// per-trial Tav samples on a sparse-cut dumbbell and a complete graph.
// This is the distributional contract of the Gamma bridging (a chunk's
// elapsed time is the sum of its per-event exponential gaps) and of the
// Beta interpolation of within-chunk exceedance times.
func TestBatchedVsLegacyTavKS(t *testing.T) {
	const trials = 120
	// Two-sample KS critical value at alpha = 0.001 for n = m = trials.
	crit := 1.949 * math.Sqrt(2.0/trials)
	cases := []struct {
		name  string
		build func() (*graph.Graph, []float64)
	}{
		{"dumbbell", func() (*graph.Graph, []float64) {
			g, part, err := graph.Dumbbell(12, 12, 1)
			if err != nil {
				t.Fatal(err)
			}
			return g, gossip.CutIndicator(part)
		}},
		{"complete", func() (*graph.Graph, []float64) {
			g := graph.Complete(16)
			x0, err := gossip.Spike(16, 0)
			if err != nil {
				t.Fatal(err)
			}
			return g, x0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, x0 := tc.build()
			cfg := Config{Trials: trials, Seed: 1234, MarginFactor: 1}
			legacy, err := Estimate(g, VanillaFactory(g, x0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if legacy.Censored != 0 || batched.Censored != 0 {
				t.Fatalf("unexpected censoring: legacy %d, batched %d", legacy.Censored, batched.Censored)
			}
			d := stats.KSDistance(legacy.PerTrial, batched.PerTrial)
			if d > crit {
				t.Errorf("KS distance %.4f between legacy and batched Tav samples exceeds %.4f (legacy Tav=%.4g, batched Tav=%.4g)",
					d, crit, legacy.Tav, batched.Tav)
			}
		})
	}
}

// Same KS contract under heterogeneous rates: the superposition is still
// Poisson at the total rate, with picks through the shared alias table.
func TestBatchedVsLegacyTavKSHeterogeneous(t *testing.T) {
	const trials = 100
	crit := 1.949 * math.Sqrt(2.0/trials)
	g, part, err := graph.Dumbbell(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	r := rng.New(5)
	rates := make([]float64, g.NumEdges())
	for i := range rates {
		rates[i] = 0.5 + 1.5*r.Float64()
	}
	cfg := Config{Trials: trials, Seed: 99, MarginFactor: 1}
	legacy, err := EstimateWithRates(g, rates, VanillaFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := EstimateBatched(g, rates, vanillaEnsembleFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.KSDistance(legacy.PerTrial, batched.PerTrial); d > crit {
		t.Errorf("KS distance %.4f exceeds %.4f", d, crit)
	}
}

// Push-sum ensembles consume the per-trial algorithm streams; the batched
// estimator must remain width-deterministic for them too.
func TestEstimateBatchedPushSumWidthDeterminism(t *testing.T) {
	g := graph.Complete(10)
	x0, err := gossip.Spike(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(_ int, algStreams []*rng.RNG) (sim.BatchKernel, error) {
		return gossip.NewPushSumEnsemble(g, x0, algStreams)
	}
	var results []Result
	for _, width := range []int{0, 2} {
		res, err := EstimateBatched(g, nil, factory, Config{Trials: 6, Seed: 3, BatchWidth: width})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("push-sum results diverged between widths: %+v vs %+v", results[0], results[1])
	}
}

// An already-averaged initial vector yields zero averaging time without
// simulating, as in the legacy path.
func TestEstimateBatchedAlreadyAveraged(t *testing.T) {
	g := graph.Complete(6)
	x0 := []float64{3, 3, 3, 3, 3, 3}
	res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav != 0 || res.Events != 0 || len(res.PerTrial) != 4 {
		t.Errorf("want all-zero result without events, got %+v", res)
	}
}

func TestEstimateBatchedValidation(t *testing.T) {
	g := graph.Complete(6)
	if _, err := EstimateBatched(g, nil, nil, Config{}); err == nil {
		t.Error("nil factory not rejected")
	}
	x0, err := gossip.Spike(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: -1}); err == nil {
		t.Error("negative trials not rejected")
	}
	if _, err := EstimateBatched(g, []float64{1}, vanillaEnsembleFactory(g, x0), Config{}); err == nil {
		t.Error("rate length mismatch not rejected")
	}
}

// The batched estimate must agree with the legacy point estimate within
// Monte-Carlo noise on a well-conditioned graph (coarse sanity on top of
// the KS tests).
func TestEstimateBatchedCloseToLegacy(t *testing.T) {
	g := graph.Complete(24)
	x0, err := gossip.Spike(24, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trials: 31, Seed: 2, MarginFactor: 1}
	legacy, err := Estimate(g, VanillaFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := batched.Tav / legacy.Tav; ratio < 0.5 || ratio > 2 {
		t.Errorf("batched Tav %v vs legacy %v (ratio %v)", batched.Tav, legacy.Tav, ratio)
	}
}

// Config.Observer is telemetry-only: the Result must be byte-identical
// with and without one, and the forwarded meter must stay monotone across
// batch boundaries (the estimator offsets each engine's counts by the
// trials already finished).
func TestEstimateBatchedObserverInert(t *testing.T) {
	g, part, err := graph.Dumbbell(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	base := Config{Trials: 9, Seed: 11, MarginFactor: 1, BatchWidth: 3}

	plain, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), base)
	if err != nil {
		t.Fatal(err)
	}

	var got []sim.BatchStats
	cfg := base
	cfg.Observer = func(st sim.BatchStats) { got = append(got, st) }
	observed, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("result diverged under observation: %+v vs %+v", plain, observed)
	}
	if len(got) == 0 {
		t.Fatal("observer never called")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Events <= got[i-1].Events {
			t.Errorf("meter not monotone across batches: %+v then %+v", got[i-1], got[i])
		}
	}
	if last := got[len(got)-1]; last.Events != observed.Events {
		t.Errorf("final observed events %d != Result.Events %d", last.Events, observed.Events)
	}
}

// BenchmarkVanillaDumbbellPerEvent and BenchmarkBatchedTrials time whole
// estimator runs, 15 trials on the 128-node dumbbell, through the
// per-replica tracked loop and through the replica-batched engine. The
// ns/event metric divides by the simulated events, so it includes each
// trial's set-up.
func BenchmarkVanillaDumbbellPerEvent(b *testing.B) {
	benchEstimate(b, func(g *graph.Graph, x0 []float64, cfg Config) (Result, error) {
		return Estimate(g, VanillaFactory(g, x0), cfg)
	})
}

func BenchmarkBatchedTrials(b *testing.B) {
	benchEstimate(b, func(g *graph.Graph, x0 []float64, cfg Config) (Result, error) {
		return EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), cfg)
	})
}

func benchEstimate(b *testing.B, estimate func(*graph.Graph, []float64, Config) (Result, error)) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	cfg := Config{Trials: 15, Seed: 1, MaxTime: 1e4}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := estimate(g, x0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
