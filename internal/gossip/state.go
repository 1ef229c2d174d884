// Package gossip implements the distributed-averaging algorithms the paper
// compares against — vanilla pairwise gossip, the general convex class C of
// Definition 2, and a push-sum baseline — together with the shared value
// state they (and the paper's Algorithm A in internal/core) operate on.
//
// Each exchange rule is written once, as a plain inlinable function
// (exchange.go); the three state layouts — State (one run), BatchState (R
// replicas, sim.BatchEngine) and FlatState (tiled, sim.ShardEngine) — call
// it from their own loops and keep their own moment bookkeeping. State
// maintains the running sum and sum of squares of the value vector
// incrementally, so the variance the paper's averaging-time metric needs is
// available in O(1) after every event rather than O(n).
//
// Key types: Algorithm (the one tick contract: sim.TickKernel's methods plus the observables), State, BatchState and the *Ensemble replica batches, FlatState. See DESIGN.md §6 (fused kernels) and §8 (replica batching).
package gossip

import (
	"fmt"
	"math"

	"sparsecut/internal/graph"
)

// resyncInterval bounds floating-point drift of the incremental moments:
// after this many point updates the sums are recomputed exactly.
const resyncInterval = 1 << 16

// State holds the node values of an averaging process plus incrementally
// maintained first and second moments.
//
// Internally the values are stored centered by the initial mean (algorithms
// in this repository are linear and shift-invariant, so running them on
// centered values is equivalent); this avoids the catastrophic cancellation
// that computing Σx² − (Σx)²/n would suffer once the process has converged
// to a large common mean. Values() reconstructs the original frame.
type State struct {
	offset  float64 // initial mean, added back on read
	y       []float64
	sum     float64 // Σy
	sumSq   float64 // Σy²
	updates int     // point updates since the last exact resync
	// dirty marks the incremental moments stale: the lazy batch updates
	// (AverageEdgesLazy and friends) touch only the values and defer the
	// moment bookkeeping to the next moment read, which resyncs exactly.
	dirty bool
}

// NewState initialises state from the vector x0 (copied, not aliased).
func NewState(x0 []float64) *State {
	s := &State{y: append([]float64(nil), x0...)}
	if len(x0) > 0 {
		m := 0.0
		for _, v := range x0 {
			m += v
		}
		s.offset = m / float64(len(x0))
		for i := range s.y {
			s.y[i] -= s.offset
		}
	}
	s.resync()
	return s
}

// N returns the number of nodes.
func (s *State) N() int { return len(s.y) }

// Get returns the value at node i in the original (uncentered) frame.
func (s *State) Get(i int) float64 { return s.y[i] + s.offset }

// Set assigns node i the value v (original frame), updating the moments in
// O(1).
func (s *State) Set(i int, v float64) {
	old := s.y[i]
	c := v - s.offset
	s.y[i] = c
	s.sum += c - old
	s.sumSq += c*c - old*old
	s.updates++
	s.resyncIfDue()
}

// Set2 assigns nodes i and j (i != j) the values vi, vj (original frame)
// in one fused call: one moment update, one resync check. It is
// bit-identical in the stored values to Set(i, vi); Set(j, vj) — the
// moment arithmetic is applied in the same order.
func (s *State) Set2(i, j int, vi, vj float64) {
	s.put2(i, j, vi-s.offset, vj-s.offset)
	s.resyncIfDue()
}

// put2 stores the centred values ci, cj at nodes i and j (i != j) with the
// eager moment bookkeeping every two-point update shares. Callers follow
// it with resyncIfDue; the check is kept out of put2 so put2 stays small
// enough to inline.
func (s *State) put2(i, j int, ci, cj float64) {
	yi, yj := s.y[i], s.y[j]
	s.y[i] = ci
	s.y[j] = cj
	s.sum += ci - yi
	s.sum += cj - yj
	s.sumSq += ci*ci - yi*yi
	s.sumSq += cj*cj - yj*yj
	s.updates += 2
}

// resyncIfDue recomputes the moments once resyncInterval point updates
// have accumulated.
func (s *State) resyncIfDue() {
	if s.updates >= resyncInterval {
		s.resync()
	}
}

// AverageEdge applies the vanilla exchange on the edge {i, j} with one
// fused moment update.
func (s *State) AverageEdge(i, j int) {
	c := averagePair(s.y[i], s.y[j], s.offset)
	s.put2(i, j, c, c)
	s.resyncIfDue()
}

// ConvexEdge applies the class-C exchange with mixing parameter alpha on
// the edge {i, j} with one fused moment update.
func (s *State) ConvexEdge(i, j int, alpha float64) {
	ci, cj := convexPair(s.y[i], s.y[j], s.offset, alpha)
	s.put2(i, j, ci, cj)
	s.resyncIfDue()
}

// AverageEdgesLazy applies the vanilla exchange for every edge of the
// batch (endpoints resolved through the flat arrays eu, ev), updating the
// values only: the moment bookkeeping is deferred to the next moment read,
// which recomputes exactly. This is the untracked simulation hot loop —
// per event it costs two loads, one fused average and two stores, with
// sum/Σ² chains removed entirely.
func (s *State) AverageEdgesLazy(edges []graph.EdgeID, eu, ev []int32) {
	y, off := s.y, s.offset
	for _, e := range edges {
		i, j := eu[e], ev[e]
		c := averagePair(y[i], y[j], off)
		y[i] = c
		y[j] = c
	}
	s.dirty = true
}

// ConvexEdgesLazy is AverageEdgesLazy for the class-C exchange with mixing
// parameter alpha.
func (s *State) ConvexEdgesLazy(edges []graph.EdgeID, eu, ev []int32, alpha float64) {
	y, off := s.y, s.offset
	for _, e := range edges {
		i, j := eu[e], ev[e]
		y[i], y[j] = convexPair(y[i], y[j], off, alpha)
	}
	s.dirty = true
}

// Set2Lazy assigns nodes i and j (i != j) the values vi, vj (original
// frame), deferring the moment bookkeeping like AverageEdgesLazy.
func (s *State) Set2Lazy(i, j int, vi, vj float64) {
	s.y[i] = vi - s.offset
	s.y[j] = vj - s.offset
	s.dirty = true
}

// Values returns a fresh copy of the value vector in the original frame.
func (s *State) Values() []float64 {
	out := make([]float64, len(s.y))
	s.CopyInto(out)
	return out
}

// CopyInto writes the value vector (original frame) into dst — the
// allocation-free counterpart of Values for trajectory recording that
// samples repeatedly into a reused buffer. It panics if len(dst) != N().
func (s *State) CopyInto(dst []float64) {
	if len(dst) != len(s.y) {
		panic("gossip: CopyInto buffer length mismatch")
	}
	for i, v := range s.y {
		dst[i] = v + s.offset
	}
}

// syncIfDirty makes the moments exact after lazy batch updates.
func (s *State) syncIfDirty() {
	if s.dirty {
		s.resync()
		s.dirty = false
	}
}

// Mean returns the current average value. For the sum-preserving algorithms
// in this repository it is invariant over time up to float rounding.
func (s *State) Mean() float64 {
	if len(s.y) == 0 {
		return math.NaN()
	}
	s.syncIfDirty()
	return s.offset + s.sum/float64(len(s.y))
}

// Sum returns the current total Σx in the original frame.
func (s *State) Sum() float64 {
	s.syncIfDirty()
	return s.sum + s.offset*float64(len(s.y))
}

// Variance returns the paper's varX: the population variance of the value
// vector, maintained incrementally (recomputed exactly on the first read
// after a lazy batch update).
func (s *State) Variance() float64 {
	n := float64(len(s.y))
	if n == 0 {
		return 0
	}
	s.syncIfDirty()
	m := s.sum / n
	v := s.sumSq/n - m*m
	if v < 0 { // float rounding can push a converged process slightly negative
		return 0
	}
	return v
}

// resync recomputes the moments exactly.
func (s *State) resync() {
	s.sum, s.sumSq = 0, 0
	for _, v := range s.y {
		s.sum += v
		s.sumSq += v * v
	}
	s.updates = 0
}

// String describes the state compactly.
func (s *State) String() string {
	return fmt.Sprintf("state(n=%d, mean=%.6g, var=%.6g)", s.N(), s.Mean(), s.Variance())
}
