//go:build !race

// Heap figures are recorded and gated without the race detector; CI runs
// this file in a separate non-race step.

package sim

import (
	"runtime"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// TestShardEngineBytesPerNode bounds the heap that the whole run state of
// the 10^6-node implicit dumbbell keeps (implicit graph and tiling, flat
// state, engine): about 8 B per node, one float64 value each. The bound is
// 1.5x that, not 2x: a second float64 per node reads 15.99 B, which 2x
// the recorded 8.02 B (16.03) would let through. It is the GC-to-GC
// HeapAlloc delta around construction.
func TestShardEngineBytesPerNode(t *testing.T) {
	const bound = 12.0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ig, err := graph.ImplicitDumbbell(500_000, 500_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	til := ig.Tiling()
	st, err := gossip.NewFlatState(gossip.CutIndicatorPrefix(ig.NumNodes(), ig.SplitPoint()), til.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewShardEngine(til, st, rng.New(1), ShardConfig{Workers: 2})
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(eng)
	perNode := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(ig.NumNodes())
	t.Logf("%.3f B per node (bound %.2f)", perNode, bound)
	if !(perNode > 0 && perNode <= bound) {
		t.Fatalf("run state keeps %.3f B per node, want (0, %.2f]", perNode, bound)
	}
}
