//go:build !race

// Without the race detector this run allocates ~7 B per commit; under it
// the figure reads 7–26 B and moves with scheduling, too close to the
// 32 B budget to gate on. CI runs this file in a separate non-race step.

package dist

import (
	"context"
	"runtime"
	"testing"
	"time"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
)

// TestShardRuntimeAllocsPerCommit bounds what a direct-path run allocates
// per committed exchange: the steps allocate nothing, so what is left is
// each node's watermark slots and the run's fixed set-up (wheel, loops,
// timers), amortised over the commits.
func TestShardRuntimeAllocsPerCommit(t *testing.T) {
	g, part, err := graph.TorusDumbbell(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewShardRuntime(g, gossip.CutIndicator(part), NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: 40 * time.Millisecond, Seed: 5},
		Shards:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := rt.Run(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	commits := rt.Exchanges()
	if commits < 1000 {
		t.Fatalf("only %d commits; the bound needs traffic", commits)
	}
	perCommit := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(commits)
	t.Logf("%d commits, %.1f B allocated per commit, %d GC cycles", commits, perCommit, m1.NumGC-m0.NumGC)
	if perCommit >= 32 {
		t.Errorf("%.1f B allocated per committed exchange, want < 32", perCommit)
	}
}
