package main

import "testing"

// TestBuildSpecTooSmall: every sized family refuses an n it cannot be
// built for with an error instead of a generator panic, and accepts its
// smallest valid n.
func TestBuildSpecTooSmall(t *testing.T) {
	for _, tc := range []struct {
		kind string
		min  int
	}{
		{"clique", 2},
		{"path", 2},
		{"ring", 3},
		{"dumbbell", 4},
	} {
		for _, n := range []int{-1, 0, tc.min - 1} {
			if _, err := buildSpec(tc.kind, n, "vanilla", 2); err == nil {
				t.Errorf("%s n=%d: no error", tc.kind, n)
			}
		}
		spec, err := buildSpec(tc.kind, tc.min, "vanilla", 2)
		if err != nil {
			t.Errorf("%s n=%d: %v", tc.kind, tc.min, err)
		} else if spec.Graph.NumNodes() < 2 {
			t.Errorf("%s n=%d: %d nodes", tc.kind, tc.min, spec.Graph.NumNodes())
		}
	}
	// The triangle ignores -n.
	if _, err := buildSpec("triangle", 0, "vanilla", 2); err != nil {
		t.Errorf("triangle: %v", err)
	}
}
