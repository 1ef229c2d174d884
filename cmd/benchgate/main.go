// Command benchgate is the repository's performance gate. It runs every
// workload of the parent's BENCHMARK.json, under that file's bounds, on
// two checkouts on one box, the parent (the merge-base) and the change,
// in pairs: pair i runs `bash perfbench/run.sh --workload W --seed i
// --seconds 1 --trace 0` on both sides, and the side that runs first
// alternates. From each run's last stdout line,
// {"correct","attempted","failed","metrics"}, it fails the change when
//
//   - a change median is worse than the parent median by more than the
//     metric's bound; where the parent's quartile spread is wider than the
//     bound, the metric is unresolved and fails only if every change run
//     is worse than every parent run;
//   - any run is not correct, or a workload or metric is missing;
//   - the change's share of failed reps exceeds the parent's.
//
// Usage, from the change's checkout (exit 0 pass, 1 fail, 2 usage):
//
//	git worktree add ../parent "$(git merge-base HEAD origin/main)"
//	go run ./cmd/benchgate ../parent .
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

const (
	// pairs is the number of interleaved parent/change run pairs per
	// workload, and seconds each run's --seconds; CHANGES.md records the
	// spreads they were chosen from.
	pairs   = 10
	seconds = 1
)

// benchmark is the part of BENCHMARK.json the gate reads.
type benchmark struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest allowed relative slip
}

// result is perfbench's result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

var (
	sides   = [2]string{"parent", "change"}
	verdict = map[bool]string{true: "ok", false: "FAIL"}
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate PARENT_CHECKOUT CHANGE_CHECKOUT")
		os.Exit(2)
	}
	dirs := [2]string{os.Args[1], os.Args[2]}
	bm, err := readBenchmark(filepath.Join(dirs[0], "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var failures []string
	for _, w := range bm.Workloads {
		var runs [2][]*result
		for i := 0; i < pairs; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // the parent runs first in even pairs
				r, err := runOnce(dirs[side], bm.Command, w.Name, i+1)
				msg, _ := json.Marshal(r)
				if err != nil {
					msg = []byte(err.Error())
				}
				fmt.Printf("%s %s seed %d: %s\n", w.Name, sides[side], i+1, msg)
				runs[side] = append(runs[side], r)
			}
		}
		lines, fails := judge(w.Name, bm.EndToEnd, runs)
		for _, l := range lines {
			fmt.Println(l)
		}
		failures = append(failures, fails...)
	}
	if len(failures) > 0 {
		fmt.Printf("\nbenchgate: FAIL (%d)\n", len(failures))
		for _, f := range failures {
			fmt.Println("  " + f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchgate: ok")
}

func readBenchmark(path string) (*benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bm.Command) == 0 || len(bm.Workloads) == 0 || len(bm.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no command, workloads or end-to-end metrics", path)
	}
	for _, m := range bm.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0) {
			return nil, fmt.Errorf("%s: metric %q: better %q, bound %v", path, m.Name, m.Better, m.Bound)
		}
	}
	return &bm, nil
}

// runOnce runs one workload in dir and parses its result line. perfbench
// exits 1 on an incorrect run but still prints the line, so the exit
// status matters only when there is no line.
func runOnce(dir string, command []string, workload string, seed int) (*result, error) {
	args := append(command[1:len(command):len(command)], "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || r.Metrics == nil {
		return nil, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	return &r, nil
}

// judge compares one workload's parent and change runs (a nil run gave no
// result line). It returns a report line per metric and the failures.
func judge(workload string, metrics []metric, runs [2][]*result) (lines, failures []string) {
	fail := func(format string, a ...any) {
		failures = append(failures, workload+": "+fmt.Sprintf(format, a...))
	}
	var attempted, failed [2]int
	for side, rs := range runs {
		if len(rs) == 0 {
			fail("no %s runs", sides[side])
		}
		for i, r := range rs {
			switch {
			case r == nil:
				fail("%s run %d gave no result line", sides[side], i+1)
			case !r.Correct:
				fail("%s run %d is not correct (%d of %d reps failed)", sides[side], i+1, r.Failed, r.Attempted)
			}
			if r != nil {
				attempted[side] += r.Attempted
				failed[side] += r.Failed
			}
		}
	}
	if share := func(s int) float64 { return float64(failed[s]) / math.Max(1, float64(attempted[s])) }; share(1) > share(0) {
		fail("failed reps: change %d of %d, parent %d of %d", failed[1], attempted[1], failed[0], attempted[0])
	}
	for _, m := range metrics {
		var vals [2][]float64
		for side, rs := range runs {
			for i, r := range rs {
				if r == nil {
					continue
				}
				v, ok := r.Metrics[m.Name]
				if !ok {
					fail("%s run %d has no metric %s", sides[side], i+1, m.Name)
					continue
				}
				vals[side] = append(vals[side], v.Value)
			}
		}
		if len(vals[0]) == 0 || len(vals[1]) == 0 {
			fail("%s: no values", m.Name)
			continue
		}
		line, ok := compare(m, vals[0], vals[1])
		lines = append(lines, workload+" "+line)
		if !ok {
			fail("%s", line)
		}
	}
	return lines, failures
}

// compare judges one metric. worse is the change median's relative slip
// from the parent median (negative when it is better); spread is the
// parent's quartile spread over its median.
func compare(m metric, parent, change []float64) (line string, ok bool) {
	pMed, cMed := quantile(parent, 0.5), quantile(change, 0.5)
	spread := (quantile(parent, 0.75) - quantile(parent, 0.25)) / math.Abs(pMed)
	sign := 1.0 // worse is larger
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (cMed - pMed) / math.Abs(pMed) // NaN or Inf on a zero parent median
	line = fmt.Sprintf("%s: parent %.6g, change %.6g, worse by %+.1f%% (bound %.0f%%, parent spread %.1f%%)",
		m.Name, pMed, cMed, 100*worse, 100*m.Bound, 100*spread)
	if spread > m.Bound {
		// Too noisy to resolve the bound: fail only on a clean separation,
		// the change's best run worse than the parent's worst.
		best, worst := 0.0, 1.0 // quantiles when lower is better
		if sign < 0 {
			best, worst = 1, 0
		}
		ok = !(sign*quantile(change, best) > sign*quantile(parent, worst))
		return line + " unresolved, " + verdict[ok], ok
	}
	ok = !(worse > m.Bound) // NaN fails
	return line + " " + verdict[ok], ok
}

// quantile interpolates the q-quantile of xs between order statistics at
// position q(n+1), the method of Python's statistics.quantiles, which
// perfbench/NOTES.md uses for its spreads; positions outside [1, n] clamp.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
