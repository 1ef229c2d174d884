// Command perfbench is the repository's benchmark: five workloads that
// cover the simulator stack (the full reproduction report and a 10^6-node
// sharded run), the live sharded runtime (direct path and lossy TCP) and
// the model checker, each measured end to end with tracing off, and layer
// by layer in a separate traced run.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sim-1m --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything before it is the run
// manifest and human-readable tables. NOTES.md lists every workload and
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one; NOTES.md maps them to each workload's own quantities.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_per_op_calib", "calib-iter"},
	{"useful_ratio", "ratio"},
}

// perLayer are the metrics of a traced run. Every traced run reports every
// one; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var m []metricDef
	for i := 1; i <= 15; i++ {
		m = append(m, metricDef{fmt.Sprintf("report.E%d.self_s", i), "s"})
	}
	return append(m, []metricDef{
		{"report.render.self_s", "s"},
		{"report.verdicts.pass", "count"},
		{"report.verdicts.fail", "count"},
		{"report.verdicts.cens", "count"},
		{"graph.implicit.s", "s"},
		{"gossip.flatstate.s", "s"},
		{"sim.shard.new.s", "s"},
		{"sim.shard.run.s", "s"},
		{"sim.shard.events", "count"},
		{"sim.shard.boundary.events", "count"},
		{"sim.shard.windows", "count"},
		{"sim.shard.segments", "count"},
		{"sim.shard.boundary_share", "ratio"},
		{"sim.shard.computed_bytes_per_event", "B"},
		{"graph.torusdumbbell.s", "s"},
		{"dist.transport.new.s", "s"},
		{"dist.new_runtime.s", "s"},
		{"dist.run.paced_s", "s"},
		{"dist.run.settle_s", "s"},
		{"dist.generator_ratio", "ratio"},
		{"dist.msgs_per_commit", "msg/commit"},
		{"dist.nacks_per_commit", "msg/commit"},
		{"dist.wire_bytes_per_commit", "B/commit"},
		{"dist.transport.dropped", "1/msg"},
		{"dist.transport.congested", "1/msg"},
		{"dist.shard_commit_skew", "ratio"},
		{"dist.exchange.latency_ns.p50", "ns"},
		{"dist.exchange.latency_ns.p99", "ns"},
		{"dist.codec_transport_cpu_us_per_commit", "us"},
		{"check.states", "count"},
		{"check.transitions", "count"},
		{"check.deduped", "count"},
		{"check.dedup_ratio", "ratio"},
		{"check.ns_per_transition", "ns"},
		{"cpu.ns_per_op", "ns"},
		{"wall.ops_per_s", "1/s"},
		{"mem.bytes_per_node", "B"},
		{"mem.peak_heap_bytes", "B"},
		{"mem.alloc_bytes_per_op", "B"},
		{"trace.unexplained_s", "s"},
		{"trace.overhead_s", "s"},
	}...)
}()

// spanMetric maps a span name to the per-layer metric carrying its self
// time.
func spanMetric(span string) string {
	switch span {
	case "report.render":
		return "report.render.self_s"
	case "dist.run.paced":
		return "dist.run.paced_s"
	case "dist.run.settle":
		return "dist.run.settle_s"
	}
	if len(span) > len("report.E") && span[:len("report.E")] == "report.E" {
		return span + ".self_s"
	}
	return span + ".s"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		smoke   = flag.Bool("smoke", false, "shrunken inputs, for the self-tests")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload for about seconds and returns its result line.
func run(name string, seed uint64, seconds int, traced, smoke bool) (*result, error) {
	w, err := newWorkload(name, seed, smoke)
	if err != nil {
		return nil, err
	}
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	man := manifest{Workload: name, Seed: seed, Seconds: seconds, Trace: traced}
	man.fingerprint()
	man.revision()
	man.CalibStart = calibrate(9)
	stat0, t0 := readCPUStat(), time.Now()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var plain, tracedReps []repResult
	var tracedRuns []int // run ids of tracedReps, index for index
	var repWall, calib []float64
	failed := 0
	budget := time.Duration(seconds) * time.Second
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced reps, so the
		// tracing overhead is measured against reps of the same run.
		var rt *tracer
		if traced && i%2 == 1 {
			rt = tr
			rt.run, rt.stack = i, nil
		}
		// The calibration loop runs right before and after every rep; each
		// rep's CPU cost is expressed in its own box speed.
		c0 := calibrate(5)
		start := time.Now()
		r, err := w.rep(rt)
		repWall = append(repWall, time.Since(start).Seconds())
		c1 := calibrate(5)
		calib = append(calib, c0, c1)
		r.calib = (c0 + c1) / 2
		switch {
		case err != nil:
			failed++
			fmt.Printf("rep %d: error: %v\n", i, err)
		case len(r.failures) > 0:
			failed++
			for _, f := range r.failures {
				fmt.Printf("rep %d: FAIL: %s\n", i, f)
			}
		}
		if err == nil {
			fmt.Printf("rep %d: traced=%t setup %.6fs call %.6fs cpu %.6fs ops %.0f alloc %d B peak %d B useful %.4f calib %.4fns\n",
				i, rt != nil, r.setup, r.wall, r.cpu, r.ops, r.alloc, r.peak, r.useful, r.calib)
			if rt != nil {
				tracedReps = append(tracedReps, r)
				tracedRuns = append(tracedRuns, i)
			} else {
				plain = append(plain, r)
			}
		}
		// Start another rep only if a typical one still fits.
		left := budget - time.Since(t0)
		enough := len(plain) > 0 && (!traced || len(tracedReps) > 0)
		typical := time.Duration(median(repWall) * float64(time.Second))
		if enough && typical > left || len(repWall) >= 1000 || left <= 0 && len(repWall) >= 4 {
			break
		}
	}

	out := &result{Attempted: len(repWall), Metrics: map[string]metricValue{}}
	fmt.Printf("perfbench: %s seed %d: %d reps (%d untraced, %d traced), %d failed; one op = %s\n",
		name, seed, len(repWall), len(plain), len(tracedReps), failed, w.op)
	if len(plain) == 0 {
		return nil, fmt.Errorf("%s: no successful untraced rep", name)
	}
	e2e := endToEndValues(plain)
	printTable("end-to-end (untraced medians)", endToEnd, e2e)
	printNamed(name, e2e, plain)

	if traced {
		if len(tracedReps) == 0 {
			return nil, fmt.Errorf("%s: no successful traced rep", name)
		}
		layer, rows := perLayerValues(tr.spans, tracedReps, tracedRuns)
		endWall := func(r repResult) float64 { return r.setup + r.wall }
		tw, pw := median(field(tracedReps, endWall)), median(field(plain, endWall))
		layer["trace.overhead_s"] = tw - pw
		layer["cpu.ns_per_op"] = cpuNsPerOp(plain)
		layer["wall.ops_per_s"] = opsPerSec(plain)
		layer["mem.bytes_per_node"] = plain[0].bytesPerNode
		layer["mem.peak_heap_bytes"] = median(field(plain, func(r repResult) float64 { return float64(r.peak) }))
		layer["mem.alloc_bytes_per_op"] = median(field(plain, func(r repResult) float64 { return float64(r.alloc) / r.ops }))
		if w.companion != nil {
			c, err := w.companion.rep(nil)
			out.Attempted++
			switch {
			case err != nil:
				return nil, fmt.Errorf("%s: companion %s: %w", name, w.companion.name, err)
			case len(c.failures) > 0:
				failed++
				for _, f := range c.failures {
					fmt.Printf("companion %s: FAIL: %s\n", w.companion.name, f)
				}
			}
			direct := c.cpu * 1e6 / c.ops
			layer["dist.codec_transport_cpu_us_per_commit"] = cpuNsPerOp(plain)/1e3 - direct
			fmt.Printf("companion %s: cpu_us_per_commit %.3f\n", w.companion.name, direct)
		}
		fmt.Println()
		printLayerTable(os.Stdout, rows, layer["trace.unexplained_s"], tw, pw)
		printTable("per-layer (traced medians; 0 = layer not exercised)", perLayer, layer)
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{Value: layer[m.name], Unit: m.unit}
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(path, tr.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
	}
	out.Failed = failed

	man.CalibEnd = calibrate(9)
	man.CalibReps = median(calib)
	man.WallS = time.Since(t0).Seconds()
	man.StealShare, man.StealS = -1, -1 // -1: /proc/stat unreadable
	if share, secs, ok := stealShare(stat0, readCPUStat()); ok {
		man.StealShare, man.StealS = share, secs
	}
	mb, err := json.Marshal(man)
	if err != nil {
		return nil, fmt.Errorf("encoding the manifest: %w", err)
	}
	fmt.Printf("manifest: %s\n", mb)
	out.Correct = failed == 0
	return out, nil
}

func field(rs []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// opsPerSec is the median over reps of ops per wall second of the call.
func opsPerSec(rs []repResult) float64 {
	return median(field(rs, func(r repResult) float64 { return r.ops / r.wall }))
}

// cpuNsPerOp is the median over reps of process CPU ns per op.
func cpuNsPerOp(rs []repResult) float64 {
	return median(field(rs, func(r repResult) float64 { return r.cpu * 1e9 / r.ops }))
}

// endToEndValues takes each metric's median over the untraced reps.
func endToEndValues(rs []repResult) map[string]float64 {
	return map[string]float64{
		"setup_s":          median(field(rs, func(r repResult) float64 { return r.setup })),
		"cpu_per_op_calib": median(field(rs, func(r repResult) float64 { return r.cpu * 1e9 / r.ops / r.calib })),
		"useful_ratio":     median(field(rs, func(r repResult) float64 { return r.useful })),
	}
}

// perLayerValues takes, per metric, the median over traced reps of span
// self times and of the counters each rep read. It also returns the layer
// table's rows. A rep's unexplained remainder is its end-to-end wall
// (set-up plus the timed call) minus the self times of its layer spans.
func perLayerValues(spans []span, rs []repResult, runs []int) (map[string]float64, []layerRow) {
	vals := map[string][]float64{}
	bySpan := map[string][]float64{}
	for k, run := range runs {
		explained := 0.0
		for n, v := range selfTimes(spans, run) {
			if n == rootSpan {
				continue // the root also holds the benchmark's own glue
			}
			bySpan[n] = append(bySpan[n], v)
			vals[spanMetric(n)] = append(vals[spanMetric(n)], v)
			explained += v
		}
		vals["trace.unexplained_s"] = append(vals["trace.unexplained_s"], rs[k].setup+rs[k].wall-explained)
		for n, v := range rs[k].layer {
			vals[n] = append(vals[n], v)
		}
	}
	out := map[string]float64{}
	for n, vs := range vals {
		out[n] = median(vs)
	}
	var rows []layerRow
	for n, vs := range bySpan {
		rows = append(rows, layerRow{name: n, self: median(vs)})
	}
	return out, rows
}

// printNamed prints the workload's headline figures under the names
// NOTES.md gives them (report_s, commits_per_s, ...), all derived from the
// same untraced reps as the end-to-end metrics.
func printNamed(name string, e2e map[string]float64, plain []repResult) {
	wall := median(field(plain, func(r repResult) float64 { return r.wall }))
	ops := opsPerSec(plain)
	cpu := median(field(plain, func(r repResult) float64 { return r.cpu }))
	cpuOp := cpuNsPerOp(plain)
	bpn := plain[0].bytesPerNode
	type fig struct {
		name string
		v    float64
		unit string
	}
	var figs []fig
	switch name {
	case "repro-full":
		figs = []fig{{"report_s", wall, "s"}, {"report_cpu_s", cpu, "s"}}
	case "sim-1m":
		figs = []fig{{"sim_events_per_s", ops, "1/s"}, {"sim_cpu_ns_per_event", cpuOp, "ns"}, {"bytes_per_node", bpn, "B"}}
	case "dist-direct", "dist-tcp-lossy":
		figs = []fig{{"commits_per_s", ops, "1/s"}, {"commit_ratio", e2e["useful_ratio"], "ratio"},
			{"cpu_us_per_commit", cpuOp / 1e3, "us"}, {"bytes_per_node", bpn, "B"}}
	case "mcheck-triangle":
		figs = []fig{{"verify_s", wall, "s"}}
	}
	figs = append(figs, fig{"calib_ns_per_iter", median(field(plain, func(r repResult) float64 { return r.calib })), "ns"})
	fmt.Println("\nnamed figures")
	for _, f := range figs {
		fmt.Printf("  %-42s %18.6g %s\n", f.name, f.v, f.unit)
	}
}

func printTable(title string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("\n%s\n", title)
	names := make([]string, 0, len(defs))
	units := map[string]string{}
	for _, d := range defs {
		names = append(names, d.name)
		units[d.name] = d.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-42s %18.6g %s\n", n, vals[n], units[n])
	}
}
