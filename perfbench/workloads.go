package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"sparsecut/internal/check"
	"sparsecut/internal/dist"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/report"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// threads is the worker count every workload uses: sweep workers, tile
// workers, runtime shards. The benchmark box has 2 CPUs.
const threads = 2

// repResult is one rep: a set-up, one timed call into the program, and
// the check of that call's output.
type repResult struct {
	setup  float64 // s, median of the set-up's repetitions in this rep
	wall   float64 // s, the timed call
	cpu    float64 // s, process CPU over the timed call
	ops    float64 // operations the timed call completed
	useful float64 // useful outcomes / attempts inside the call
	calib  float64 // ns per calibration-loop iteration around this rep
	peak   uint64  // B, peak live heap at GC ends during the call
	alloc  uint64  // B, heap allocated by the call
	// bytesPerNode is the retained heap of the run state after a forced
	// GC over the node count; 0 where the workload holds no per-node state.
	bytesPerNode float64
	failures     []string
	// layer holds per-layer counts and ratios read from the program's own
	// counters (traced reps fill the registry-backed ones).
	layer map[string]float64
}

// workload is one named set of inputs (why each was chosen: NOTES.md and
// BENCHMARK.json). rep runs one set-up and one timed call; tr is nil on
// untraced reps.
type workload struct {
	name string
	op   string // what ops_per_s counts
	rep  func(tr *tracer) (repResult, error)
	// companion, when set, is run once untraced at the end of a traced
	// run, for per-layer figures defined against another workload.
	companion *workload
	// procs, when set, is the GOMAXPROCS the run uses.
	procs int
}

// sizes are the workload dimensions; smoke mode shrinks them so every
// workload runs in well under a second.
type sizes struct {
	reportQuick bool
	simSide     int
	simHorizon  float64
	distNodes   int
	distUntil   float64
	directScale time.Duration
	tcpScale    time.Duration
	checkDepth  int
}

var fullSizes = sizes{
	simSide:     500_000,
	simHorizon:  5e-4,
	distNodes:   100_000,
	distUntil:   2,
	directScale: 2 * time.Second,
	tcpScale:    8 * time.Second,
	checkDepth:  12,
}

var smokeSizes = sizes{
	reportQuick: true,
	simSide:     20_000,
	simHorizon:  5e-5,
	distNodes:   2_000,
	distUntil:   2,
	directScale: 100 * time.Millisecond,
	tcpScale:    400 * time.Millisecond,
	checkDepth:  7,
}

// timeSetup runs fn and returns its wall time in seconds. Unless once is
// set, a set-up faster than 5 ms is repeated (up to 100 times or 50 ms)
// and the median returned, so microsecond set-ups are not read off a
// single timer pair. fn must leave the state of its last call in place.
// Traced reps pass once, so each layer span is recorded exactly once.
func timeSetup(once bool, fn func() error) (float64, error) {
	runtime.GC() // every set-up starts on a collected heap
	var samples []float64
	var spent time.Duration
	for len(samples) < 100 {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(t)
		samples = append(samples, d.Seconds())
		spent += d
		if once || d >= 5*time.Millisecond || spent >= 50*time.Millisecond {
			break
		}
	}
	return median(samples), nil
}

// timed runs the call and fills wall, cpu, alloc and peak.
func timed(r *repResult, call func() error) error {
	pk := startPeak()
	a0, c0, t0 := allocBytes(), cpuTime(), time.Now()
	err := call()
	r.wall = time.Since(t0).Seconds()
	r.cpu = (cpuTime() - c0).Seconds()
	r.alloc = allocBytes() - a0
	r.peak = pk.stop()
	return err
}

// setupRetained times the set-up and, when measure is set, the live heap
// it leaves behind per node. Only a workload's first rep measures: later
// reps start while the previous rep's state may still be reachable from
// goroutines that are winding down, which would make the baseline wrong.
func setupRetained(r *repResult, measure, once bool, nodes int, setup func() error) error {
	var before uint64
	if measure {
		before = liveHeap()
	}
	s, err := timeSetup(once, setup)
	if err != nil {
		return err
	}
	r.setup = s
	if !measure {
		return nil
	}
	d, err := heapDelta(before, liveHeap())
	if err != nil {
		return err
	}
	r.bytesPerNode = float64(d) / float64(nodes)
	return nil
}

// ---------------------------------------------------------------- repro-full

func reproWorkload(seed uint64, sz sizes, expectJSON []byte) workload {
	if seed == 0 {
		seed = 1 // report.Params' own default
	}
	var firstMD, firstJSON []byte
	w := workload{
		name: "repro-full",
		op:   "report verdict (table-row verdict or derived check)",
	}
	w.rep = func(tr *tracer) (repResult, error) {
		var r repResult
		root := tr.begin(rootSpan)
		var entries []report.Entry
		p := report.Params{Quick: sz.reportQuick, Seed: seed, Workers: threads}
		r.setup, _ = timeSetup(tr != nil, func() error { // cannot fail
			entries = report.Entries()
			return nil
		})
		var md, js bytes.Buffer
		var doc *report.Document
		err := timed(&r, func() error {
			if tr == nil {
				var err error
				if doc, err = report.Generate(p); err != nil {
					return err
				}
			} else {
				// Generate's own loop, with a span per entry.
				doc = &report.Document{Paper: report.PaperID, Mode: p.Mode(), Seed: p.Seed}
				for _, e := range entries {
					id := tr.begin("report." + e.ID)
					sec, err := e.RunEntry(p)
					tr.end(id)
					if err != nil {
						return err
					}
					doc.Sections = append(doc.Sections, sec)
				}
			}
			id := tr.begin("report.render")
			defer tr.end(id)
			if err := doc.WriteMarkdown(&md); err != nil {
				return err
			}
			return doc.WriteJSON(&js)
		})
		tr.end(root)
		if err != nil {
			return r, err
		}
		var v report.VerdictCount
		checks := 0
		for _, s := range doc.Sections {
			v.Pass += s.Verdicts.Pass
			v.Fail += s.Verdicts.Fail
			v.Cens += s.Verdicts.Cens
			checks += len(s.Checks)
		}
		r.ops = float64(v.Pass + v.Fail + v.Cens + checks)
		r.useful = float64(v.Pass+checks-len(doc.Failures())) / r.ops
		r.layer = map[string]float64{
			"report.verdicts.pass": float64(v.Pass),
			"report.verdicts.fail": float64(v.Fail),
			"report.verdicts.cens": float64(v.Cens),
		}
		if firstJSON == nil {
			firstMD, firstJSON = md.Bytes(), js.Bytes()
		}
		r.failures = checkReport(doc.Failures(), js.Bytes(), md.Bytes(), firstJSON, firstMD, expectJSON)
		return r, nil
	}
	return w
}

// ---------------------------------------------------------------- sim-1m

func simWorkload(seed uint64, sz sizes) workload {
	w := workload{
		name: "sim-1m",
		op:   "simulated edge event",
	}
	measured := false
	w.rep = func(tr *tracer) (repResult, error) {
		var r repResult
		var reg *metrics.Registry
		if tr != nil {
			reg = metrics.NewRegistry()
		}
		root := tr.begin(rootSpan)
		var (
			st  *gossip.FlatState
			eng *sim.ShardEngine
		)
		n := 2 * sz.simSide
		measure := !measured && tr == nil
		err := setupRetained(&r, measure, tr != nil, n, func() error {
			id := tr.begin("graph.implicit")
			ig, err := graph.ImplicitDumbbell(sz.simSide, sz.simSide, 8)
			if err != nil {
				tr.end(id)
				return err
			}
			til := ig.Tiling()
			tr.end(id)
			x0 := gossip.CutIndicatorPrefix(ig.NumNodes(), ig.SplitPoint())
			id = tr.begin("gossip.flatstate")
			st, err = gossip.NewFlatState(x0, til.Bounds())
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("sim.shard.new")
			eng = sim.NewShardEngine(til, st, rng.New(seed), sim.ShardConfig{Workers: threads, Metrics: reg})
			tr.end(id)
			return nil
		})
		if err != nil {
			tr.end(root)
			return r, err
		}
		measured = measured || measure
		sum0, var0, maxAbs := flatMoments(st)
		_ = timed(&r, func() error {
			id := tr.begin("sim.shard.run")
			eng.RunUntil(sz.simHorizon)
			tr.end(id)
			return nil
		})
		tr.end(root)
		r.ops = float64(eng.Events())
		r.useful = 1 // every event applies one exchange
		sum1, var1, _ := flatMoments(st)
		r.failures = checkSim(sum0, sum1, var0, var1, maxAbs, eng.Events(), n)
		snap := reg.Snapshot()
		ev := float64(snap.Counters["sim.shard.events"])
		bev := float64(snap.Counters["sim.shard.boundary.events"])
		r.layer = map[string]float64{
			"sim.shard.events":          ev,
			"sim.shard.boundary.events": bev,
			"sim.shard.windows":         float64(snap.Counters["sim.shard.windows"]),
			"sim.shard.segments":        float64(snap.Counters["sim.shard.segments"]),
			// Each vanilla exchange reads two 8-byte values and writes two.
			"sim.shard.computed_bytes_per_event": 32,
		}
		if ev+bev > 0 {
			r.layer["sim.shard.boundary_share"] = bev / (ev + bev)
		}
		return r, nil
	}
	return w
}

// flatMoments recomputes the sum, population variance and largest
// magnitude of the state's values from the values themselves, not from
// the state's incrementally tracked moments.
func flatMoments(st *gossip.FlatState) (s, variance, maxAbs float64) {
	n := st.N()
	for u := 0; u < n; u++ {
		v := st.Value(u)
		s += v
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	m := s / float64(n)
	for u := 0; u < n; u++ {
		d := st.Value(u) - m
		variance += d * d
	}
	return s, variance / float64(n), maxAbs
}

// ---------------------------------------------------------------- dist

// distSpec is one live-runtime configuration.
type distSpec struct {
	name     string
	scale    time.Duration
	tcp      bool
	dropRate float64
	lockTO   time.Duration // 0 = the runtime's default, TimeScale/4
	nodes    int
	until    float64
	seed     uint64
}

func distWorkload(d distSpec) workload {
	w := workload{name: d.name, op: "committed exchange"}
	measured := false
	w.rep = func(tr *tracer) (repResult, error) {
		var r repResult
		var reg *metrics.Registry
		if tr != nil {
			reg = metrics.NewRegistry()
		}
		root := tr.begin(rootSpan)
		var (
			g       *graph.Graph
			x0      []float64
			rt      *dist.ShardRuntime
			tcp     *dist.TCPTransport
			drop    *dist.DropTransport
			closeTr func()
		)
		measure := !measured && tr == nil
		err := setupRetained(&r, measure, tr != nil, d.nodes, func() error {
			if closeTr != nil {
				closeTr()
			}
			id := tr.begin("graph.torusdumbbell")
			var part *graph.Partition
			var err error
			g, part, err = graph.TorusDumbbell(d.nodes, 8)
			tr.end(id)
			if err != nil {
				return err
			}
			x0 = gossip.CutIndicator(part)
			cfg := dist.ShardRuntimeConfig{
				ClusterConfig: dist.ClusterConfig{TimeScale: d.scale, LockTimeout: d.lockTO, Seed: d.seed, Metrics: reg},
				Shards:        threads,
			}
			if d.tcp {
				id := tr.begin("dist.transport.new")
				tcp, err = dist.NewTCPTransport(threads)
				if err == nil {
					drop, err = dist.NewDropTransport(tcp, d.dropRate, rng.New(d.seed^0x5eed))
				}
				tr.end(id)
				if err != nil {
					if tcp != nil {
						tcp.Close()
					}
					return err
				}
				cfg.Transport = drop
				closeTr = func() { drop.Close() }
			}
			id = tr.begin("dist.new_runtime")
			rt, err = dist.NewShardRuntime(g, x0, dist.NewVanillaRule(), cfg)
			tr.end(id)
			return err
		})
		if closeTr != nil {
			defer closeTr()
		}
		if err != nil {
			tr.end(root)
			return r, err
		}
		measured = measured || measure
		var runErr error
		var pacedEnd time.Time
		err = timed(&r, func() error {
			id := tr.begin("dist.run")
			start := time.Now()
			// The horizon is read from this goroutine's own timer, not
			// from the runtime: paced is Run's start to the horizon, and
			// settle is the drain after it.
			done := make(chan time.Time, 1)
			timer := time.AfterFunc(time.Duration(d.until*float64(d.scale)), func() { done <- time.Now() })
			runErr = rt.Run(context.Background(), d.until)
			end := time.Now()
			if timer.Stop() {
				pacedEnd = end
			} else {
				pacedEnd = <-done
			}
			tr.add("dist.run.paced", id, start, pacedEnd)
			tr.add("dist.run.settle", id, pacedEnd, end)
			tr.end(id)
			return nil
		})
		tr.end(root)
		if err != nil {
			return r, err
		}
		committed := rt.Exchanges()
		r.ops = float64(committed)
		if p := rt.Proposed(); p > 0 {
			r.useful = float64(committed) / float64(p)
		}
		r.failures = checkLedger(ledger{
			runErr:    runErr,
			sum0:      sum(x0),
			sum:       sum(rt.Values()),
			n:         d.nodes,
			proposed:  rt.Proposed(),
			applied:   rt.Applied(),
			aborted:   rt.Aborted(),
			committed: committed,
		})
		r.layer = distLayer(reg.Snapshot(), rt, g, d.until, tcp)
		return r, nil
	}
	return w
}

// distLayer derives the runtime's per-layer ratios from its counters.
func distLayer(snap metrics.Snapshot, rt *dist.ShardRuntime, g *graph.Graph, until float64, tcp *dist.TCPTransport) map[string]float64 {
	c := snap.Counters
	committed := float64(rt.Exchanges())
	m := map[string]float64{
		"dist.generator_ratio": float64(rt.Proposed()) / (float64(g.NumEdges()) * until),
	}
	per := func(v float64) float64 {
		if committed == 0 {
			return 0
		}
		return v / committed
	}
	sent := float64(c["dist.msg.sent.lock"] + c["dist.msg.sent.propose"] + c["dist.msg.sent.nack"] + c["dist.msg.sent.commit"])
	if c != nil {
		m["dist.msgs_per_commit"] = per(sent)
		m["dist.nacks_per_commit"] = per(float64(c["dist.msg.sent.nack"]))
		if sent > 0 {
			m["dist.transport.dropped"] = float64(c["dist.transport.dropped"]) / sent
			m["dist.transport.congested"] = float64(c["dist.transport.congested"]) / sent
		}
		lo, hi := math.Inf(1), 0.0
		for i := 0; i < rt.Shards(); i++ {
			v := float64(c[fmt.Sprintf("dist.shard.%02d.committed", i)])
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if lo > 0 {
			m["dist.shard_commit_skew"] = hi / lo
		}
		h := snap.Histograms["dist.exchange.latency_ns"]
		if h.Count > 0 {
			m["dist.exchange.latency_ns.p50"] = h.Quantile(0.5)
			m["dist.exchange.latency_ns.p99"] = h.Quantile(0.99)
		}
	}
	if tcp != nil {
		m["dist.wire_bytes_per_commit"] = per(float64(tcp.BytesOut()))
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// ---------------------------------------------------------------- mcheck

// checkX0 is the model checker's CI initial assignment (cmd/mcheck):
// distinct, sum-varied values that are exact in binary.
func checkX0(n int) []float64 {
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64((i*3)%7) - 2
	}
	return x0
}

func mcheckWorkload(sz sizes) workload {
	w := workload{
		name: "mcheck-triangle",
		op:   "checker transition",
		// The checker is single-threaded. With a second P idle, the GC's
		// idle mark workers occupy it for the whole mark phase, so process
		// CPU per transition grew with the wall-time stretch of host steal
		// (spread 0.22 over ten seeds); on one P it tracks the work.
		procs: 1,
	}
	w.rep = func(tr *tracer) (repResult, error) {
		var r repResult
		root := tr.begin(rootSpan)
		var spec check.Spec
		r.setup, _ = timeSetup(tr != nil, func() error { // cannot fail
			spec = check.Spec{Graph: graph.Complete(3), X0: checkX0(3), Rule: check.Vanilla()}
			return nil
		})
		var res *check.Result
		err := timed(&r, func() error {
			id := tr.begin("check.exhaustive")
			defer tr.end(id)
			var err error
			res, err = check.Exhaustive(spec, check.Options{MaxDepth: sz.checkDepth, Drops: true, Dups: true, Crashes: true})
			return err
		})
		tr.end(root)
		if err != nil {
			return r, err
		}
		r.ops = float64(res.Transitions)
		r.useful = float64(res.StatesExplored) / float64(res.Transitions)
		r.failures = checkModel(res)
		r.layer = map[string]float64{
			"check.states":            float64(res.StatesExplored),
			"check.transitions":       float64(res.Transitions),
			"check.deduped":           float64(res.Deduped),
			"check.dedup_ratio":       float64(res.Deduped) / float64(res.Transitions),
			"check.ns_per_transition": r.wall * 1e9 / float64(res.Transitions),
		}
		return r, nil
	}
	return w
}

// names lists every workload, in BENCHMARK.json's order.
var names = []string{"repro-full", "sim-1m", "dist-direct", "dist-tcp-lossy", "mcheck-triangle"}

// newWorkload builds the named workload for seed, on shrunken inputs when
// smoke is set.
func newWorkload(name string, seed uint64, smoke bool) (workload, error) {
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	direct := distSpec{
		name:  "dist-direct",
		scale: sz.directScale, nodes: sz.distNodes, until: sz.distUntil, seed: seed,
	}
	switch name {
	case "repro-full":
		var expect []byte
		if seed <= 1 && !sz.reportQuick {
			b, err := os.ReadFile("REPRODUCTION.json")
			if err != nil {
				return workload{}, fmt.Errorf("repro-full at seed 1 compares against the committed report: %w", err)
			}
			expect = b
		}
		return reproWorkload(seed, sz, expect), nil
	case "sim-1m":
		return simWorkload(seed, sz), nil
	case "dist-direct":
		return distWorkload(direct), nil
	case "dist-tcp-lossy":
		w := distWorkload(distSpec{
			name: "dist-tcp-lossy",
			// TimeScale 8 s offers about 2.5e4 initiations/s, a third of
			// the 2-CPU box's capacity at ~29 us CPU per commit, so the
			// path keeps headroom under host steal: at 4 s (5e4/s), runs
			// with 20-30% steal dropped the commit ratio from 0.90 to
			// 0.67. The lock timeout stays at 1 s, its default at 4 s.
			scale: sz.tcpScale, lockTO: sz.tcpScale / 8, tcp: true, dropRate: 0.05, nodes: sz.distNodes, until: sz.distUntil / 4, seed: seed,
		})
		comp := distWorkload(direct)
		w.companion = &comp
		return w, nil
	case "mcheck-triangle":
		return mcheckWorkload(sz), nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
