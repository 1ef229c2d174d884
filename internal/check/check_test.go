package check

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"sparsecut/internal/dist"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

func triangleSpec() Spec {
	return Spec{Graph: graph.Complete(3), X0: []float64{1, 5, 0}, Rule: Vanilla()}
}

func faultOptions(depth int) Options {
	return Options{MaxDepth: depth, Drops: true, Dups: true, Crashes: true}
}

// TestExhaustiveTriangleClean is the tentpole guarantee: every state of a
// 3-node clique reachable within the default budgets — arbitrary delivery
// order, drops, duplicated replies, timeouts firing at any point, proposal
// retransmissions, and a crash/recovery — satisfies every invariant.
func TestExhaustiveTriangleClean(t *testing.T) {
	res, err := Exhaustive(triangleSpec(), faultOptions(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("correct protocol violated an invariant:\n%+v", res.Counterexample.Violation)
	}
	if res.Truncated {
		t.Fatalf("state budget exhausted after %d states; exploration incomplete", res.StatesExplored)
	}
	// The space is explored deterministically; the exact count pins the
	// enumeration so accidental action-alphabet changes are visible.
	if res.StatesExplored < 50_000 {
		t.Fatalf("suspiciously small exploration: %d states", res.StatesExplored)
	}
	if res.DeepestDepth != 12 {
		t.Fatalf("deepest depth %d, want 12", res.DeepestDepth)
	}
	t.Logf("explored %d states, %d transitions (%d deduped)", res.StatesExplored, res.Transitions, res.Deduped)
}

// TestExhaustiveTrianglePinnedCounts pins the exact size of one explored
// state space. The counts depend on the action alphabet, the state hash and
// the world copy: a change to how world states are copied or fingerprinted
// that merges or splits states shows up here as a changed count, even when
// no invariant fails.
func TestExhaustiveTrianglePinnedCounts(t *testing.T) {
	spec := Spec{Graph: graph.Complete(3), X0: []float64{-2, 1, -1}, Rule: Vanilla()}
	res, err := Exhaustive(spec, faultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil || res.Truncated {
		t.Fatalf("counterexample %v, truncated %v", res.Counterexample, res.Truncated)
	}
	const states, transitions, deduped = 50838, 180985, 130148
	if res.StatesExplored != states || res.Transitions != transitions || res.Deduped != deduped {
		t.Fatalf("explored %d states, %d transitions, %d deduped; want %d, %d, %d",
			res.StatesExplored, res.Transitions, res.Deduped, states, transitions, deduped)
	}
}

// TestExhaustiveSparseCutClean runs the checker over Algorithm A's exchange
// rule on a 4-node path cut in the middle, including the designated edge's
// tick counter and swap in the explored state.
func TestExhaustiveSparseCutClean(t *testing.T) {
	g := graph.Path(4)
	cut, ok := g.FindEdge(1, 2)
	if !ok {
		t.Fatal("path(4) is missing edge 1-2")
	}
	spec := Spec{
		Graph: g,
		X0:    []float64{2, 4, -1, 3},
		Rule:  SparseCut([]int{0, 0, 1, 1}, int(cut), 2, 0.5),
	}
	opt := Options{MaxDepth: 10, Drops: true, Crashes: true}
	res, err := Exhaustive(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("sparse-cut rule violated an invariant:\n%+v", res.Counterexample.Violation)
	}
	if res.Truncated {
		t.Fatal("exploration truncated")
	}
}

// TestMutationsCaught proves the checker catches every seeded protocol bug
// — including the two real bugs it found in this machine's own seed
// (MutNackRoleConfusion, MutLaxWatermarkDedup) — and that each
// counterexample replays deterministically to the identical violation,
// survives a JSON round trip, and re-encodes as a schedule byte-string
// that reproduces it.
func TestMutationsCaught(t *testing.T) {
	mutations := []dist.Mutation{
		dist.MutNackRollbackApplies,
		dist.MutStaleProposalApply,
		dist.MutCommitIgnoresSeq,
		dist.MutNackRoleConfusion,
		dist.MutLaxWatermarkDedup,
	}
	for _, mu := range mutations {
		mu := mu
		t.Run(mu.String(), func(t *testing.T) {
			spec := triangleSpec()
			opt := faultOptions(12)
			opt.Mutation = mu
			res, err := Exhaustive(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Counterexample
			if tr == nil {
				t.Fatalf("mutation %s not caught in %d states", mu, res.StatesExplored)
			}
			if tr.Mutation != mu.String() {
				t.Fatalf("trace names mutation %q, want %q", tr.Mutation, mu)
			}
			if tr.Violation == nil || tr.Violation.Step != len(tr.Actions) {
				t.Fatalf("violation %+v does not sit at the trace's last action (%d)", tr.Violation, len(tr.Actions))
			}

			// The replayer must reproduce the identical violation...
			v, err := Replay(tr)
			if err != nil {
				t.Fatalf("replay failed: %v", err)
			}
			if !tr.Violation.Same(v) {
				t.Fatalf("replayed violation %+v differs from recorded %+v", v, tr.Violation)
			}

			// ...including after a trip through trace JSON on disk...
			path := filepath.Join(t.TempDir(), "cex.json")
			if err := tr.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			v, err = Replay(loaded)
			if err != nil {
				t.Fatalf("replay of loaded trace failed: %v", err)
			}
			if !tr.Violation.Same(v) {
				t.Fatalf("loaded-trace violation %+v differs from recorded %+v", v, tr.Violation)
			}

			// ...and re-encoded as a schedule byte-string (the fuzz format).
			sched, err := EncodeSchedule(spec, opt, tr.Actions)
			if err != nil {
				t.Fatalf("encoding schedule: %v", err)
			}
			_, v, err = RunSchedule(spec, opt, sched)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Violation.Same(v) {
				t.Fatalf("byte-schedule violation %+v differs from recorded %+v", v, tr.Violation)
			}
			t.Logf("caught at step %d (%s): %s", tr.Violation.Step, tr.Violation.Invariant, tr.Violation.Detail)
		})
	}
}

// TestRandomWalk checks walk mode: clean on the correct protocol, and it
// still finds a seeded bug (with enough walks) without exhaustive search.
func TestRandomWalk(t *testing.T) {
	spec := triangleSpec()
	res, err := RandomWalk(spec, faultOptions(20), 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("correct protocol violated an invariant on a random walk:\n%+v", res.Counterexample.Violation)
	}
	if res.Walks != 200 {
		t.Fatalf("completed %d walks, want 200", res.Walks)
	}

	opt := faultOptions(20)
	opt.Mutation = dist.MutNackRollbackApplies
	res, err = RandomWalk(spec, opt, 7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatalf("mutation %s not found in 5000 random walks", opt.Mutation)
	}
	if v, err := Replay(res.Counterexample); err != nil || !res.Counterexample.Violation.Same(v) {
		t.Fatalf("walk counterexample does not replay: v=%+v err=%v", v, err)
	}
}

// TestCheckRuleMatchesDistRules pins the checker-local rule to the dist
// package's rules: identical deltas (and identical tick/swap schedules for
// the sparse-cut rule) over the same exchange sequence.
func TestCheckRuleMatchesDistRules(t *testing.T) {
	t.Run("vanilla", func(t *testing.T) {
		g := graph.Complete(3)
		cr, err := buildRule(Vanilla(), g)
		if err != nil {
			t.Fatal(err)
		}
		dr := dist.NewVanillaRule()
		r := rng.New(3)
		for i := 0; i < 200; i++ {
			e := graph.EdgeID(r.Intn(g.NumEdges()))
			xi, xr := r.Float64()*10-5, r.Float64()*10-5
			if got, want := cr.Delta(e, 0, xi, xr), dr.Delta(e, 0, xi, xr); got != want {
				t.Fatalf("step %d: checkRule delta %v, dist delta %v", i, got, want)
			}
		}
	})
	t.Run("sparse-cut", func(t *testing.T) {
		g, part, err := graph.Dumbbell(3, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		cutEdge := part.CutEdges()[0]
		const k, w = 3, 0.25
		dr, err := dist.NewSparseCutRule(part, cutEdge, k, w)
		if err != nil {
			t.Fatal(err)
		}
		sides := make([]int, g.NumNodes())
		for i := range sides {
			if part.SideOf(graph.NodeID(i)) == graph.Side2 {
				sides[i] = 1
			}
		}
		cr, err := buildRule(SparseCut(sides, int(cutEdge), k, w), g)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(5)
		for i := 0; i < 500; i++ {
			e := graph.EdgeID(r.Intn(g.NumEdges()))
			xi, xr := r.Float64()*10-5, r.Float64()*10-5
			if got, want := cr.Delta(e, 0, xi, xr), dr.Delta(e, 0, xi, xr); got != want {
				t.Fatalf("step %d edge %d: checkRule delta %v, dist delta %v", i, e, got, want)
			}
		}
		if cr.ticks != dr.Ticks() || cr.swaps != dr.Swaps() {
			t.Fatalf("checkRule ticks/swaps %d/%d, dist %d/%d", cr.ticks, cr.swaps, dr.Ticks(), dr.Swaps())
		}
		if cr.swaps == 0 {
			t.Fatal("sequence never exercised the swap path")
		}
	})
}

// TestSpecValidation exercises the constructor errors.
func TestSpecValidation(t *testing.T) {
	tri := graph.Complete(3)
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"nil graph", Spec{X0: []float64{1}, Rule: Vanilla()}, "no graph"},
		{"wrong x0 len", Spec{Graph: tri, X0: []float64{1, 2}, Rule: Vanilla()}, "initial values"},
		{"nan x0", Spec{Graph: tri, X0: []float64{1, math.NaN(), 2}, Rule: Vanilla()}, "NaN"},
		{"bad rule kind", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: RuleSpec{Kind: "nope"}}, "unknown rule"},
		{"bad sides len", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 1}, 0, 1, 0.5)}, "sides"},
		{"non-cut edge", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 1, 1}, 2, 1, 0.5)}, "does not cross"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Exhaustive(tc.spec, Options{MaxDepth: 2})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestEncodeScheduleRejectsForeignAction: an action that is not enabled at
// its step must not silently encode.
func TestEncodeScheduleRejectsForeignAction(t *testing.T) {
	_, err := EncodeSchedule(triangleSpec(), faultOptions(4), []Action{{Op: OpTimeout, Node: 0}})
	if err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("error %v, want 'not enabled'", err)
	}
}
