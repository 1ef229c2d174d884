package core

import (
	"fmt"

	"sparsecut/internal/graph"
)

// WeightRule selects the coefficient w of the non-convex cut-edge update
//
//	x_a ← x_a + w·(x_b − x_a)
//	x_b ← x_b − w·(x_b − x_a)
//
// performed at every K-th tick of the designated cut edge ec = (a, b).
// The update is antisymmetric in (a, b), so the orientation of ec does not
// matter. Any w preserves the sum; w > 1 makes the update non-convex.
type WeightRule int

const (
	// WeightExact uses w* = n1·n2/(n1+n2).
	//
	// Derivation: write µ1, µ2 for the side means and x̄ for the global
	// mean. When both sides are internally mixed (x_a = µ1, x_b = µ2) the
	// update transfers Δ = w·(µ2 − µ1) into side 1. Using
	// n1·µ1 + n2·µ2 = n·x̄, the choice w = n1·n2/n gives side-1 sum
	//
	//	n1·µ1 + (n1·n2/n)(µ2 − µ1) = (n1/n)(n1·µ1 + n2·µ2) = n1·x̄,
	//
	// i.e. both side means land exactly on x̄ in a single swap. This is the
	// library default.
	WeightExact WeightRule = iota

	// WeightPaper uses w = n1 = min(|V1|, |V2|), the paper's literal
	// coefficient. It equals w*·(n/n2), so it agrees with WeightExact
	// asymptotically when n1 ≪ n2 but overshoots by a factor n/n2; at
	// n1 = n2 the swap exchanges the side means instead of annihilating
	// them and the mean component of the variance never contracts —
	// experiment E8 demonstrates this failure mode.
	WeightPaper

	// WeightCustom uses a caller-supplied coefficient (see WithWeight).
	WeightCustom
)

// String names the rule.
func (w WeightRule) String() string {
	switch w {
	case WeightExact:
		return "exact(n1*n2/n)"
	case WeightPaper:
		return "paper(n1)"
	case WeightCustom:
		return "custom"
	default:
		return fmt.Sprintf("weight-rule(%d)", int(w))
	}
}

// ExactWeight returns w* = n1·n2/(n1+n2) for a partition.
func ExactWeight(p *graph.Partition) float64 {
	n1 := float64(p.Size1())
	n2 := float64(p.Size2())
	return n1 * n2 / (n1 + n2)
}

// PaperWeight returns the paper's literal coefficient min(|V1|, |V2|).
func PaperWeight(p *graph.Partition) float64 {
	return float64(p.MinSide())
}

// weightFor resolves a rule to a numeric coefficient.
func weightFor(rule WeightRule, custom float64, p *graph.Partition) (float64, error) {
	switch rule {
	case WeightExact:
		return ExactWeight(p), nil
	case WeightPaper:
		return PaperWeight(p), nil
	case WeightCustom:
		if !(0 < custom) {
			return 0, fmt.Errorf("core: custom weight %v must be positive", custom)
		}
		return custom, nil
	default:
		return 0, fmt.Errorf("core: unknown weight rule %d", int(rule))
	}
}
