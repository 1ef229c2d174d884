// Command bench runs the repository's performance suite — micro-benchmarks
// of the simulation hot paths plus the E1–E15 experiments — and emits a
// machine-readable JSON report (ns/event, events/sec, allocations,
// per-experiment wall time). It exists so every PR can record a comparable
// perf baseline: see BENCH_PR2.json for the first one.
//
// Usage:
//
//	go run ./cmd/bench -quick -out bench.json
//
// -quick runs the experiments in their CI-sized quick mode; without it the
// full-size experiment tables are timed (minutes, not seconds).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"sparsecut/internal/avgtime"
	"sparsecut/internal/dist"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/report"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// Report is the emitted JSON document.
type Report struct {
	Schema      string       `json:"schema"`
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	NumCPU      int          `json:"num_cpu"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Quick       bool         `json:"quick"`
	Micro       []MicroBench `json:"micro"`
	Experiments []ExpTiming  `json:"experiments"`
}

// MicroBench is one testing.Benchmark result, normalised per event.
type MicroBench struct {
	Name         string  `json:"name"`
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	// BytesPerNode is the retained heap of the whole run state divided by
	// the node count — the memory-footprint axis of the sharded rows,
	// gated alongside ns/event by -baseline.
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
}

// ExpTiming is one experiment's wall-clock cost.
type ExpTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Metrics int     `json:"metrics"`
}

func mustDumbbell() (*graph.Graph, *graph.Partition, []float64) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		panic(err)
	}
	return g, part, gossip.CutIndicator(part)
}

func benchResult(name string, fn func(b *testing.B)) MicroBench {
	res := testing.Benchmark(fn)
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	return MicroBench{
		Name:         name,
		NsPerEvent:   ns,
		EventsPerSec: 1e9 / ns,
		BytesPerOp:   res.AllocedBytesPerOp(),
		AllocsPerOp:  res.AllocsPerOp(),
	}
}

func microBenches() []MicroBench {
	newEngine := func(b *testing.B, alg gossip.Algorithm, opts ...sim.Option) *sim.Engine {
		g, _, _ := mustDumbbell()
		eng, err := sim.NewEngine(g, alg, opts...)
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	vanilla := func(b *testing.B) gossip.Algorithm {
		g, _, x0 := mustDumbbell()
		alg, err := gossip.NewVanilla(g, x0)
		if err != nil {
			b.Fatal(err)
		}
		return alg
	}
	return []MicroBench{
		benchResult("simulator/vanilla-fused", func(b *testing.B) {
			b.ReportAllocs()
			eng := newEngine(b, vanilla(b))
			b.ResetTimer()
			eng.RunEvents(int64(b.N))
		}),
		benchResult("simulator/vanilla-legacy", func(b *testing.B) {
			b.ReportAllocs()
			eng := newEngine(b, vanilla(b))
			b.ResetTimer()
			eng.Run(sim.MaxEvents(int64(b.N)))
		}),
		benchResult("simulator/vanilla-tracked", func(b *testing.B) {
			b.ReportAllocs()
			g, _, x0 := mustDumbbell()
			alg, err := gossip.NewVanilla(g, x0)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := sim.NewEngine(g, alg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			eng.RunTracked(sim.Tracked{StopLevel: -1, MaxTime: float64(b.N) / float64(g.NumEdges())})
		}),
		benchResult("simulator/per-edge-heap", func(b *testing.B) {
			b.ReportAllocs()
			eng := newEngine(b, vanilla(b), sim.WithScheduler(sim.PerEdgeClocks))
			b.ResetTimer()
			eng.RunEvents(int64(b.N))
		}),
		benchResult("simulator/heterogeneous-alias", func(b *testing.B) {
			b.ReportAllocs()
			g, _, x0 := mustDumbbell()
			alg, err := gossip.NewVanilla(g, x0)
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
		}),
		benchResult("simulator/vanilla-batch-bridged", func(b *testing.B) {
			// The replica-batched untracked hot path: SoA rows, one
			// uniform pick per event, one Gamma bridge draw per chunk.
			b.ReportAllocs()
			const replicas = 16
			g, _, x0 := mustDumbbell()
			ens, err := gossip.NewVanillaEnsemble(g, x0, replicas)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := sim.NewBatchEngine(g, ens, batchStreams(replicas))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			// Distribute b.N events across the replicas; the per-replica
			// rounding is at most replicas-1 events of b.N.
			eng.RunEvents((int64(b.N) + replicas - 1) / replicas)
		}),
		benchResult("simulator/vanilla-batch-tracked", func(b *testing.B) {
			// The replica-batched averaging-time loop: per-event moments
			// and exceedance compares, chunk-bridged clocks.
			b.ReportAllocs()
			const replicas = 16
			g, _, x0 := mustDumbbell()
			ens, err := gossip.NewVanillaEnsemble(g, x0, replicas)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := sim.NewBatchEngine(g, ens, batchStreams(replicas))
			if err != nil {
				b.Fatal(err)
			}
			var0 := ens.ReplicaVariance(0)
			b.ResetTimer()
			eng.RunTracked(sim.Tracked{
				ExceedLevel: var0 * math.Exp(-2),
				StopLevel:   -1, // never stop on variance: run to the horizon
				MaxTime:     float64(b.N) / float64(replicas*g.NumEdges()),
			})
		}),
		benchResult("rng/gamma-int-256", func(b *testing.B) {
			r := rng.New(1)
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += r.GammaInt(256)
			}
			_ = sink
		}),
		benchResult("rng/gamma-int-mixed-shapes", func(b *testing.B) {
			// Alternating shapes defeat the per-shape d/c cache on every
			// draw — the worst case the repeated-shape rows amortise away.
			r := rng.New(1)
			var sink float64
			for i := 0; i < b.N; i++ {
				if i&1 == 0 {
					sink += r.GammaInt(64)
				} else {
					sink += r.GammaInt(256)
				}
			}
			_ = sink
		}),
		benchResult("rng/exp-unit", func(b *testing.B) {
			r := rng.New(1)
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += r.ExpUnit()
			}
			_ = sink
		}),
		benchResult("rng/fill-exp-batch", func(b *testing.B) {
			r := rng.New(1)
			dst := make([]float64, 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i += len(dst) {
				r.FillExp(dst, 1)
			}
		}),
	}
}

// shardedBenches times the sharded PDES engine on graphs the materialised
// engines cannot hold. The headline row is the 10^6-node dumbbell —
// 2.5x10^11 edges, never materialised: ns_per_event covers the windowed
// tile hot path, and bytes_per_node is the retained heap of the entire
// run state (implicit graph + flat state + engine), measured with
// runtime.MemStats across construction.
func shardedBenches() ([]MicroBench, error) {
	const (
		side    = 500_000
		cut     = 8
		workers = 2 // the dumbbell tiles in 2; more workers would idle
	)
	build := func() (graph.Implicit, *sim.ShardEngine, error) {
		ig, err := graph.ImplicitDumbbell(side, side, cut)
		if err != nil {
			return nil, nil, err
		}
		til := ig.Tiling()
		x0 := gossip.CutIndicatorPrefix(ig.NumNodes(), ig.SplitPoint())
		st, err := gossip.NewFlatState(x0, til.Bounds())
		if err != nil {
			return nil, nil, err
		}
		eng := sim.NewShardEngine(til, st, rng.New(1), sim.ShardConfig{Workers: workers})
		return ig, eng, nil
	}

	// Retained footprint: GC-to-GC HeapAlloc delta around construction.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ig, eng, err := build()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	var bytesPerNode float64
	if m1.HeapAlloc > m0.HeapAlloc {
		bytesPerNode = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(ig.NumNodes())
	}
	runtime.KeepAlive(eng)

	rate := float64(ig.NumEdges())
	row := benchResult("sharded/dumbbell-1m", func(b *testing.B) {
		b.ReportAllocs()
		_, eng, err := build()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		eng.RunUntil(float64(b.N) / rate)
	})
	row.BytesPerNode = bytesPerNode
	return []MicroBench{row}, nil
}

// distShardBenches times the sharded actor runtime (internal/dist) end to
// end on a 10^5-node torus dumbbell: construction footprint plus a
// saturated run. Timing is manual rather than testing.Benchmark — the
// runtime paces itself in wall-clock time, so b.N calibration would
// re-run a multi-hundred-millisecond wall-paced horizon dozens of times.
// The short TimeScale makes the offered load (2 initiations per node per
// unit across 10^5 nodes) exceed what the shard loops can serve, so
// ns_per_event measures the protocol hot path, not the pacing idle.
// Events are resolved exchange attempts plus responder commits;
// bytes_per_node is the retained heap of graph + runtime state.
func distShardBenches() ([]MicroBench, error) {
	const (
		n      = 100_000
		cut    = 8
		shards = 4
	)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, part, err := graph.TorusDumbbell(n, cut)
	if err != nil {
		return nil, err
	}
	x0 := gossip.CutIndicator(part)
	rt, err := dist.NewShardRuntime(g, x0, dist.NewVanillaRule(), dist.ShardRuntimeConfig{
		ClusterConfig: dist.ClusterConfig{TimeScale: 500 * time.Millisecond, Seed: 1},
		Shards:        shards,
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	var bytesPerNode float64
	if m1.HeapAlloc > m0.HeapAlloc {
		bytesPerNode = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(n)
	}

	start := time.Now()
	if err := rt.Run(context.Background(), 1); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	events := rt.Proposed() + rt.Exchanges()
	if events == 0 {
		return nil, fmt.Errorf("bench: shard runtime resolved no exchanges")
	}
	ns := float64(wall.Nanoseconds()) / float64(events)
	return []MicroBench{{
		Name:         "dist/shard-100k",
		NsPerEvent:   ns,
		EventsPerSec: 1e9 / ns,
		BytesPerNode: bytesPerNode,
	}}, nil
}

// batchStreams derives one independent stream per replica, the way the
// batched estimator does.
func batchStreams(replicas int) []*rng.RNG {
	root := rng.New(1)
	streams := make([]*rng.RNG, replicas)
	for i := range streams {
		streams[i] = root.Split()
	}
	return streams
}

// avgtimeBenches times whole estimator runs on the same multi-trial
// workload — the PR 2 per-replica tracked loop versus the replica-batched
// bridged engine — normalising by the actual simulated event count, so
// ns_per_event is comparable with the other rows (it includes per-trial
// setup and tracked-loop overhead). The batched/legacy pair is the
// headline comparison of BENCH_PR4.json.
func avgtimeBenches() ([]MicroBench, error) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		return nil, err
	}
	x0 := gossip.CutIndicator(part)
	cfg := avgtime.Config{Trials: 15, Seed: 1, MaxTime: 1e4}

	start := time.Now()
	res, err := avgtime.Estimate(g, avgtime.VanillaFactory(g, x0), cfg)
	if err != nil {
		return nil, err
	}
	legacyNs := float64(time.Since(start).Nanoseconds()) / float64(res.Events)

	start = time.Now()
	batched, err := avgtime.EstimateBatched(g, nil, func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
		return gossip.NewVanillaEnsemble(g, x0, replicas)
	}, cfg)
	if err != nil {
		return nil, err
	}
	batchedNs := float64(time.Since(start).Nanoseconds()) / float64(batched.Events)

	return []MicroBench{
		{
			Name:         "avgtime/vanilla-dumbbell-per-event",
			NsPerEvent:   legacyNs,
			EventsPerSec: 1e9 / legacyNs,
		},
		{
			Name:         "avgtime/batched-trials",
			NsPerEvent:   batchedNs,
			EventsPerSec: 1e9 / batchedNs,
		},
	}, nil
}

func runExperiments(quick bool) ([]ExpTiming, error) {
	var out []ExpTiming
	for _, e := range report.Entries() {
		start := time.Now()
		sec, err := e.RunEntry(report.Params{Quick: quick, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, ExpTiming{
			ID:      e.ID,
			Seconds: time.Since(start).Seconds(),
			Metrics: len(sec.Metrics),
		})
	}
	return out, nil
}

// regressionRows are the micro benchmarks the -baseline check gates on:
// the untracked fused simulator, the batched multi-trial estimator, and
// the sharded million-node engine — the headline hot paths of the perf
// stack. Sharded rows additionally gate bytes_per_node.
var regressionRows = []string{"simulator/vanilla-fused", "avgtime/batched-trials", "sharded/dumbbell-1m", "dist/shard-100k"}

// baselineFile accepts either a raw Report or a BENCH_PR<N>.json wrapper
// whose "current" field holds one.
type baselineFile struct {
	Micro   []MicroBench `json:"micro"`
	Current *Report      `json:"current"`
}

// loadBaseline reads the recorded baseline rows, keyed by name.
func loadBaseline(path string) (map[string]MicroBench, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	micro := bf.Micro
	if bf.Current != nil {
		micro = bf.Current.Micro
	}
	if len(micro) == 0 {
		return nil, fmt.Errorf("%s: no micro benchmark rows", path)
	}
	rows := make(map[string]MicroBench, len(micro))
	for _, m := range micro {
		rows[m.Name] = m
	}
	return rows, nil
}

// checkRegression compares the gated rows against the baseline with a
// multiplicative tolerance, reporting each verdict; it returns false when
// any row regressed past tolerance.
func checkRegression(current []MicroBench, baseline map[string]MicroBench, tolerance float64) bool {
	rows := make(map[string]MicroBench, len(current))
	for _, m := range current {
		rows[m.Name] = m
	}
	ok := true
	for _, name := range regressionRows {
		base, haveBase := baseline[name]
		cur, haveCur := rows[name]
		switch {
		case !haveBase:
			fmt.Fprintf(os.Stderr, "bench: baseline has no row %q, skipping\n", name)
		case !haveCur:
			fmt.Fprintf(os.Stderr, "bench: REGRESSION %q missing from current run\n", name)
			ok = false
		case cur.NsPerEvent > tolerance*base.NsPerEvent:
			fmt.Fprintf(os.Stderr, "bench: REGRESSION %q: %.2f ns/event vs baseline %.2f (tolerance %.1fx)\n",
				name, cur.NsPerEvent, base.NsPerEvent, tolerance)
			ok = false
		case base.BytesPerNode > 0 && cur.BytesPerNode > tolerance*base.BytesPerNode:
			fmt.Fprintf(os.Stderr, "bench: REGRESSION %q: %.1f bytes/node vs baseline %.1f (tolerance %.1fx)\n",
				name, cur.BytesPerNode, base.BytesPerNode, tolerance)
			ok = false
		default:
			fmt.Fprintf(os.Stderr, "bench: ok %q: %.2f ns/event vs baseline %.2f (tolerance %.1fx)\n",
				name, cur.NsPerEvent, base.NsPerEvent, tolerance)
		}
	}
	return ok
}

func main() {
	quick := flag.Bool("quick", false, "run experiments in CI-sized quick mode")
	outPath := flag.String("out", "", "write the JSON report to this file (default stdout)")
	skipExperiments := flag.Bool("no-experiments", false, "benchmark only the micro hot paths")
	baselinePath := flag.String("baseline", "", "compare the gated hot-path rows against this recorded report; exit 1 on regression")
	baselineTol := flag.Float64("baseline-tolerance", 2, "multiplicative ns/event tolerance for -baseline (generous: single-CPU CI noise)")
	flag.Parse()

	// Load the baseline before any output is written, so -out may safely
	// overwrite the baseline file itself.
	var baseline map[string]MicroBench
	if *baselinePath != "" {
		var err error
		if baseline, err = loadBaseline(*baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	rep := Report{
		Schema:      "sparsecut-bench/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       *quick,
	}
	rep.Micro = microBenches()
	avg, err := avgtimeBenches()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Micro = append(rep.Micro, avg...)
	shd, err := shardedBenches()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Micro = append(rep.Micro, shd...)
	dsh, err := distShardBenches()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Micro = append(rep.Micro, dsh...)
	if !*skipExperiments {
		exps, err := runExperiments(*quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.Experiments = exps
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d micro benchmarks, %d experiments)\n", *outPath, len(rep.Micro), len(rep.Experiments))
	}
	if baseline != nil && !checkRegression(rep.Micro, baseline, *baselineTol) {
		os.Exit(1)
	}
}
