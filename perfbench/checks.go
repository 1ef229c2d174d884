package main

import (
	"bytes"
	"fmt"
	"math"

	"sparsecut/internal/check"
)

// The correctness checks, one per workload. Each returns the list of
// failures it found; an empty list means the rep's output is correct.
// They are plain functions of the observed outputs so the self-tests can
// feed them broken inputs and show each one can fail.

// checkReport passes when the report has no FAIL verdict or failed check
// and its bytes are right: identical to the committed REPRODUCTION.json
// when expect is given (seed 1, full mode), and identical to the run's
// first rep otherwise (traced and untraced reps must render the same
// bytes, so tracing is shown to be inert).
func checkReport(failures []string, js, md, firstJSON, firstMD, expect []byte) []string {
	var out []string
	for _, f := range failures {
		out = append(out, "report: "+f)
	}
	if expect != nil && !bytes.Equal(js, expect) {
		out = append(out, fmt.Sprintf("report: JSON differs from the committed REPRODUCTION.json at byte %d", firstDiff(js, expect)))
	}
	if !bytes.Equal(js, firstJSON) || !bytes.Equal(md, firstMD) {
		out = append(out, "report: output differs from this run's first rep (not deterministic)")
	}
	return out
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// roundingTol bounds how far a sum of values may drift through ops
// pairwise exchanges plus one summation over n values, each rounding by
// at most one ulp of the largest magnitude involved (with a 4x margin).
func roundingTol(ops int64, n int, maxAbs float64) float64 {
	return 4 * 0x1p-52 * float64(ops+int64(n)) * maxAbs
}

// checkSim passes when averaging conserved the sum up to float rounding
// and did not raise the variance.
func checkSim(sum0, sum1, var0, var1, maxAbs float64, events int64, n int) []string {
	var out []string
	if events <= 0 {
		out = append(out, "sim: no events simulated")
	}
	if d, tol := math.Abs(sum1-sum0), roundingTol(events, n, maxAbs); !(d <= tol) {
		out = append(out, fmt.Sprintf("sim: sum drifted by %.3g (float-rounding bound %.3g)", d, tol))
	}
	if !(var1 <= var0*(1+1e-9)) {
		out = append(out, fmt.Sprintf("sim: variance rose from %.17g to %.17g", var0, var1))
	}
	return out
}

// ledger is what a live run leaves to check.
type ledger struct {
	runErr                                error
	sum0, sum                             float64
	n                                     int
	proposed, applied, aborted, committed int64
}

// checkLedger passes when Run returned no error, the value sum is
// conserved up to float rounding, every initiation resolved
// (proposed == applied + aborted) and no commit is stale
// (applied == committed). Aborts are not failures.
func checkLedger(l ledger) []string {
	var out []string
	if l.runErr != nil {
		out = append(out, fmt.Sprintf("dist: Run: %v", l.runErr))
	}
	if l.committed <= 0 {
		out = append(out, "dist: no exchange committed")
	}
	if d, tol := math.Abs(l.sum-l.sum0), roundingTol(l.proposed, l.n, 1); !(d <= tol) {
		out = append(out, fmt.Sprintf("dist: sum drifted by %.3g (float-rounding bound %.3g)", d, tol))
	}
	if l.proposed != l.applied+l.aborted {
		out = append(out, fmt.Sprintf("dist: ledger unbalanced: proposed %d != applied %d + aborted %d", l.proposed, l.applied, l.aborted))
	}
	if l.applied != l.committed {
		out = append(out, fmt.Sprintf("dist: applied %d != committed %d", l.applied, l.committed))
	}
	return out
}

// checkModel passes when the bounded space was exhausted with no
// invariant violation.
func checkModel(res *check.Result) []string {
	var out []string
	if ce := res.Counterexample; ce != nil {
		if v := ce.Violation; v != nil {
			out = append(out, fmt.Sprintf("check: violation at step %d: %s: %s", v.Step, v.Invariant, v.Detail))
		} else {
			out = append(out, "check: counterexample without a recorded violation")
		}
	}
	if res.Truncated {
		out = append(out, fmt.Sprintf("check: truncated after %d states; the space was not exhausted", res.StatesExplored))
	}
	if res.StatesExplored <= 0 {
		out = append(out, "check: no states explored")
	}
	return out
}
