//go:build !race

// The race detector instruments every memory access and adds its own
// allocations, so the byte count below means nothing under -race. CI runs
// this file in a separate non-race step of the model-check job.

package check

import (
	"runtime"
	"testing"
)

// TestExhaustiveAllocsPerTransition bounds what the explorer allocates per
// transition. Every transition copies into a world allocated once per DFS
// depth and drains in one shared scratch world, so what is left is the
// visited-state table's growth and the buffers' first growth, amortised
// over the search. Allocating a fresh world per transition would cost
// ~2 KB.
func TestExhaustiveAllocsPerTransition(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := Exhaustive(triangleSpec(), faultOptions(8))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil || res.Truncated {
		t.Fatalf("counterexample %v, truncated %v", res.Counterexample, res.Truncated)
	}
	perTransition := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Transitions)
	t.Logf("%d transitions, %.1f B allocated per transition", res.Transitions, perTransition)
	if perTransition > 64 {
		t.Errorf("%.1f B allocated per transition, want at most 64", perTransition)
	}
}
