package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Result lines recorded from untraced 1-second perfbench runs of one tree
// (2-vCPU Xeon, go1.24), seeds 1-4, some values rounded.
var recorded = map[string][]string{
	"sim-1m": {
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_per_op_calib":{"value":10.46498264263317,"unit":"calib-iter"},"setup_s":{"value":0.01745,"unit":"s"},"useful_ratio":{"value":1,"unit":"ratio"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_per_op_calib":{"value":10.6,"unit":"calib-iter"},"setup_s":{"value":0.02044,"unit":"s"},"useful_ratio":{"value":1,"unit":"ratio"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_per_op_calib":{"value":9.841,"unit":"calib-iter"},"setup_s":{"value":0.0189,"unit":"s"},"useful_ratio":{"value":1,"unit":"ratio"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_per_op_calib":{"value":10.46,"unit":"calib-iter"},"setup_s":{"value":0.01723,"unit":"s"},"useful_ratio":{"value":1,"unit":"ratio"}}}`,
	},
	"dist-tcp-lossy": {
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_per_op_calib":{"value":4391,"unit":"calib-iter"},"setup_s":{"value":0.0861,"unit":"s"},"useful_ratio":{"value":0.9229,"unit":"ratio"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_per_op_calib":{"value":4181,"unit":"calib-iter"},"setup_s":{"value":0.132,"unit":"s"},"useful_ratio":{"value":0.9243,"unit":"ratio"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_per_op_calib":{"value":3551,"unit":"calib-iter"},"setup_s":{"value":0.1263,"unit":"s"},"useful_ratio":{"value":0.9217,"unit":"ratio"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_per_op_calib":{"value":3164,"unit":"calib-iter"},"setup_s":{"value":0.1194,"unit":"s"},"useful_ratio":{"value":0.9171,"unit":"ratio"}}}`,
	},
}

var e2e = []metric{
	{Name: "setup_s", Better: "lower", Bound: 0.25},
	{Name: "cpu_per_op_calib", Better: "lower", Bound: 0.25},
	{Name: "useful_ratio", Better: "higher", Bound: 0.1},
}

func parse(t *testing.T, lines []string) []*result {
	t.Helper()
	var rs []*result
	for _, l := range lines {
		var r result
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatal(err)
		}
		rs = append(rs, &r)
	}
	return rs
}

// scaled returns copies of rs with metric name multiplied by f.
func scaled(rs []*result, name string, f float64) []*result {
	var out []*result
	for _, r := range rs {
		c := *r
		c.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{}
		for n, v := range r.Metrics {
			if n == name {
				v.Value *= f
			}
			c.Metrics[n] = v
		}
		out = append(out, &c)
	}
	return out
}

// failsOn reports whether any failure contains want.
func failsOn(failures []string, want string) bool {
	for _, f := range failures {
		if strings.Contains(f, want) {
			return true
		}
	}
	return false
}

func TestJudgePassesSameRuns(t *testing.T) {
	for w, lines := range recorded {
		rs := parse(t, lines)
		// The change is the same runs in another order.
		change := []*result{rs[2], rs[0], rs[3], rs[1]}
		out, failures := judge(w, e2e, [2][]*result{rs, change})
		if len(failures) > 0 {
			t.Errorf("%s: %v", w, failures)
		}
		if len(out) != len(e2e) {
			t.Errorf("%s: %d report lines, want %d", w, len(out), len(e2e))
		}
	}
}

func TestJudgeFailsOnSlip(t *testing.T) {
	rs := parse(t, recorded["sim-1m"])
	_, failures := judge("sim-1m", e2e, [2][]*result{rs, scaled(rs, "cpu_per_op_calib", 1.3)})
	if len(failures) != 1 || !failsOn(failures, "cpu_per_op_calib") {
		t.Errorf("30%% cpu slip: failures %v", failures)
	}
	// Within the bound passes; a faster change passes.
	for _, f := range []float64{1.2, 0.5} {
		if _, failures := judge("sim-1m", e2e, [2][]*result{rs, scaled(rs, "cpu_per_op_calib", f)}); len(failures) > 0 {
			t.Errorf("cpu x%v: failures %v", f, failures)
		}
	}
	// Higher is better: a useful_ratio drop past 10% fails, a rise passes.
	_, failures = judge("sim-1m", e2e, [2][]*result{rs, scaled(rs, "useful_ratio", 0.85)})
	if !failsOn(failures, "useful_ratio") {
		t.Errorf("useful_ratio -15%%: failures %v", failures)
	}
	if _, failures := judge("sim-1m", e2e, [2][]*result{rs, scaled(rs, "useful_ratio", 1.5)}); len(failures) > 0 {
		t.Errorf("useful_ratio +50%%: failures %v", failures)
	}
}

func TestJudgeUnresolvedNeedsSeparation(t *testing.T) {
	rs := parse(t, recorded["sim-1m"])
	// A parent setup_s spread of about 60%, wider than the 25% bound.
	noisy := scaled(rs, "setup_s", 1)
	for i, f := range []float64{0.6, 1.4, 1, 1.5} {
		v := noisy[i].Metrics["setup_s"]
		v.Value *= f
		noisy[i].Metrics["setup_s"] = v
	}
	// The change's median is 30% worse but overlaps the parent's runs.
	change := scaled(noisy, "setup_s", 1.3)
	out, failures := judge("sim-1m", e2e, [2][]*result{noisy, change})
	if len(failures) > 0 {
		t.Errorf("overlapping unresolved slip: failures %v", failures)
	}
	if !strings.Contains(strings.Join(out, "\n"), "unresolved") {
		t.Errorf("setup_s not reported unresolved:\n%s", strings.Join(out, "\n"))
	}
	// Every change run worse than every parent run fails.
	_, failures = judge("sim-1m", e2e, [2][]*result{noisy, scaled(noisy, "setup_s", 3)})
	if !failsOn(failures, "setup_s") || !failsOn(failures, "unresolved") {
		t.Errorf("separated unresolved slip: failures %v", failures)
	}
}

func TestJudgeFailsOnIncorrectRun(t *testing.T) {
	rs := parse(t, recorded["dist-tcp-lossy"])
	change := scaled(rs, "", 1)
	change[1].Correct, change[1].Failed = false, 1
	_, failures := judge("dist-tcp-lossy", e2e, [2][]*result{rs, change})
	if !failsOn(failures, "change run 2 is not correct") || !failsOn(failures, "failed reps") {
		t.Errorf("failures %v", failures)
	}
	// An incorrect parent run fails the gate too.
	parent := scaled(rs, "", 1)
	parent[0].Correct, parent[0].Failed = false, 1
	if _, failures := judge("dist-tcp-lossy", e2e, [2][]*result{parent, rs}); !failsOn(failures, "parent run 1 is not correct") {
		t.Errorf("failures %v", failures)
	}
}

func TestJudgeFailsOnFailedShare(t *testing.T) {
	rs := parse(t, recorded["dist-tcp-lossy"])
	// A line that claims correct with a failed rep isolates the share rule.
	change := scaled(rs, "", 1)
	change[3].Failed = 1
	_, failures := judge("dist-tcp-lossy", e2e, [2][]*result{rs, change})
	if len(failures) != 1 || !failsOn(failures, "failed reps: change 1 of 4, parent 0 of 4") {
		t.Errorf("failures %v", failures)
	}
	// The same share on both sides passes.
	parent := scaled(rs, "", 1)
	parent[0].Failed = 1
	if _, failures := judge("dist-tcp-lossy", e2e, [2][]*result{parent, change}); len(failures) > 0 {
		t.Errorf("equal shares: failures %v", failures)
	}
}

func TestJudgeFailsOnMissing(t *testing.T) {
	rs := parse(t, recorded["sim-1m"])
	change := scaled(rs, "", 1)
	delete(change[2].Metrics, "useful_ratio")
	_, failures := judge("sim-1m", e2e, [2][]*result{rs, change})
	if !failsOn(failures, "change run 3 has no metric useful_ratio") {
		t.Errorf("missing metric: failures %v", failures)
	}
	// A run without a result line, and a side whose runs all gave none.
	_, failures = judge("sim-1m", e2e, [2][]*result{rs, {rs[0], nil, rs[2], rs[3]}})
	if !failsOn(failures, "change run 2 gave no result line") {
		t.Errorf("nil run: failures %v", failures)
	}
	_, failures = judge("sim-1m", e2e, [2][]*result{rs, {nil, nil}})
	if !failsOn(failures, "cpu_per_op_calib: no values") {
		t.Errorf("no change results: failures %v", failures)
	}
	if _, failures = judge("sim-1m", e2e, [2][]*result{rs, nil}); !failsOn(failures, "no change runs") {
		t.Errorf("missing workload: failures %v", failures)
	}
	// A metric BENCHMARK.json gates that no run reports.
	extra := append(e2e[:len(e2e):len(e2e)], metric{Name: "wall_s", Better: "lower", Bound: 0.25})
	if _, failures := judge("sim-1m", extra, [2][]*result{rs, rs}); !failsOn(failures, "has no metric wall_s") {
		t.Errorf("ungated metric: failures %v", failures)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0.5, 3}, {0.25, 1.5}, {0.75, 4.5}, {0.01, 1}, {0.99, 5}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{2, 1, 4, 3}, 0.5); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestReadBenchmark(t *testing.T) {
	bm, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != 5 || len(bm.EndToEnd) != 3 || bm.Command[0] != "bash" {
		t.Errorf("read %+v", bm)
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	os.WriteFile(bad, []byte(`{"command":["x"],"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"lower"}]}`), 0o644)
	if _, err := readBenchmark(bad); err == nil {
		t.Error("a metric without a bound was accepted")
	}
}

// TestRunOnce drives runOnce with stand-in benchmark commands.
func TestRunOnce(t *testing.T) {
	dir := t.TempDir()
	line := recorded["sim-1m"][0]
	script := func(name, body string) []string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o755); err != nil {
			t.Fatal(err)
		}
		return []string{"sh", path}
	}
	// The arguments reach the command; the last line is parsed even when
	// the command exits 1, as perfbench does on an incorrect run.
	cmd := script("ok.sh", `echo "rep 0: $*"; echo '`+line+`'; exit 1`)
	r, err := runOnce(dir, cmd, "sim-1m", 3)
	if err != nil || r.Metrics["cpu_per_op_calib"].Value != 10.46498264263317 {
		t.Fatalf("runOnce = %+v, %v", r, err)
	}
	want := fmt.Sprintf("--workload sim-1m --seed 3 --seconds %d --trace 0", seconds)
	cmd = script("args.sh", `test "$*" = "`+want+`" && echo '`+line+`'`)
	if _, err := runOnce(dir, cmd, "sim-1m", 3); err != nil {
		t.Errorf("arguments: %v", err)
	}
	cmd = script("none.sh", `echo "perfbench: no such workload" >&2; exit 2`)
	if _, err := runOnce(dir, cmd, "sim-1m", 3); err == nil {
		t.Error("no result line: no error")
	}
}
