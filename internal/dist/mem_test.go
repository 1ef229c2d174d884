//go:build !race

// Heap figures are recorded and gated without the race detector; CI runs
// this file in a separate non-race step.

package dist

import (
	"runtime"
	"testing"
	"time"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
)

// TestShardRuntimeBytesPerNode bounds the heap that a 10^5-node torus
// dumbbell and its ShardRuntime keep (graph, node states, shards, wheels,
// mailboxes) at 522.3 B per node, twice the 261.2 B recorded when the
// bound was set. It is the GC-to-GC HeapAlloc delta around construction.
func TestShardRuntimeBytesPerNode(t *testing.T) {
	const (
		n     = 100_000
		bound = 522.3
	)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g, part, err := graph.TorusDumbbell(n, 8)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewShardRuntime(g, gossip.CutIndicator(part), NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: 500 * time.Millisecond, Seed: 1},
		Shards:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(rt)
	perNode := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	t.Logf("%.1f B per node (bound %.1f)", perNode, bound)
	if !(perNode > 0 && perNode <= bound) {
		t.Fatalf("graph and runtime keep %.1f B per node, want (0, %.1f]", perNode, bound)
	}
}
