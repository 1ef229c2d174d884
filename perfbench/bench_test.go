package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"sparsecut/internal/check"
)

// Each correctness check must be able to fail: these feed it the defect it
// exists to catch.

func TestReportCheckCatchesOneByteChange(t *testing.T) {
	committed, err := os.ReadFile("../REPRODUCTION.json")
	if err != nil {
		t.Fatal(err)
	}
	md := []byte("# report\n")
	if f := checkReport(nil, committed, md, committed, md, committed); len(f) != 0 {
		t.Fatalf("identical report flagged: %v", f)
	}
	changed := append([]byte(nil), committed...)
	changed[len(changed)/2] ^= 1
	f := checkReport(nil, changed, md, changed, md, committed)
	if len(f) != 1 || !strings.Contains(f[0], "committed REPRODUCTION.json") {
		t.Fatalf("one-byte change not caught: %v", f)
	}
	// Another seed has no committed bytes, but every rep must match the first.
	if f := checkReport(nil, changed, md, committed, md, nil); len(f) != 1 {
		t.Fatalf("rep differing from the first rep not caught: %v", f)
	}
	if f := checkReport([]string{"E4: 1 table row(s) FAIL"}, committed, md, committed, md, committed); len(f) != 1 {
		t.Fatalf("FAIL verdict not caught: %v", f)
	}
}

func TestLedgerCheckCatchesUnbalancedLedger(t *testing.T) {
	ok := ledger{sum0: 3, sum: 3, n: 10, proposed: 100, applied: 90, aborted: 10, committed: 90}
	if f := checkLedger(ok); len(f) != 0 {
		t.Fatalf("balanced ledger flagged: %v", f)
	}
	cases := map[string]func(l *ledger){
		"unbalanced":  func(l *ledger) { l.aborted = 9 },
		"stale":       func(l *ledger) { l.committed = 89 },
		"drift":       func(l *ledger) { l.sum = 3 + 1e-6 },
		"run error":   func(l *ledger) { l.runErr = errors.New("send failed") },
		"no commits":  func(l *ledger) { l.applied, l.committed, l.aborted = 0, 0, 100 },
		"nan sum":     func(l *ledger) { l.sum = math.NaN() },
		"lost commit": func(l *ledger) { l.applied = 89 },
	}
	for name, mutate := range cases {
		l := ok
		mutate(&l)
		if f := checkLedger(l); len(f) == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestModelCheckCatchesTruncation(t *testing.T) {
	if f := checkModel(&check.Result{StatesExplored: 10, Transitions: 20}); len(f) != 0 {
		t.Fatalf("clean result flagged: %v", f)
	}
	if f := checkModel(&check.Result{StatesExplored: 10, Transitions: 20, Truncated: true}); len(f) != 1 {
		t.Fatalf("truncated result not caught: %v", f)
	}
	v := &check.Violation{Step: 3, Invariant: "sum", Detail: "drift"}
	if f := checkModel(&check.Result{StatesExplored: 10, Counterexample: &check.Trace{Violation: v}}); len(f) != 1 {
		t.Fatalf("violation not caught: %v", f)
	}
}

func TestHeapDeltaRefusesWrapAndClamp(t *testing.T) {
	if d, err := heapDelta(1000, 9000); err != nil || d != 8000 {
		t.Fatalf("heapDelta(1000, 9000) = %d, %v", d, err)
	}
	// A shrinking heap would wrap to ~1.8e19 in unsigned arithmetic, or read
	// as a free run state if clamped to 0.
	for _, c := range [][2]uint64{{9000, 1000}, {5, 5}, {math.MaxUint64, 1}, {1, math.MaxUint64}} {
		if d, err := heapDelta(c[0], c[1]); err == nil {
			t.Errorf("heapDelta(%d, %d) = %d, want an error", c[0], c[1], d)
		}
	}
}

func TestSimCheckCatchesDriftAndVarianceRise(t *testing.T) {
	if f := checkSim(0, 1e-12, 1, 0.5, 1, 1e6, 1000); len(f) != 0 {
		t.Fatalf("clean run flagged: %v", f)
	}
	if f := checkSim(0, 1e-3, 1, 0.5, 1, 1e6, 1000); len(f) != 1 {
		t.Fatalf("sum drift not caught: %v", f)
	}
	if f := checkSim(0, 0, 1, 1.01, 1, 1e6, 1000); len(f) != 1 {
		t.Fatalf("variance rise not caught: %v", f)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Run: 1, Name: "rep", Start: 0, End: 100},
		{ID: 1, Parent: 0, Run: 1, Name: "a", Start: 10, End: 60},
		{ID: 2, Parent: 1, Run: 1, Name: "b", Start: 20, End: 40},
		{ID: 3, Parent: 0, Run: 2, Name: "a", Start: 0, End: 1000},
	}
	got := selfTimes(spans, 1)
	want := map[string]float64{"rep": 50e-9, "a": 30e-9, "b": 20e-9}
	for n, v := range want {
		if math.Abs(got[n]-v) > 1e-15 {
			t.Errorf("self(%s) = %g, want %g", n, got[n], v)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables in this package in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the tables %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, table %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
	}
}

// TestSmoke runs every workload on shrunken inputs, untraced and traced,
// and requires a correct result with every metric present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			res, err := run(name, 1, 1, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %v, %t", name, traced, m.name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.name, v.Value)
				}
			}
		}
	}
}
