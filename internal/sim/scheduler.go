package sim

import (
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// globalScheduler superposes all edge clocks into one Poisson stream at the
// total rate; each event picks an edge with probability proportional to its
// rate. Uniform rates use a constant-time Lemire pick; heterogeneous rates
// use a Walker alias table — also O(1) per event, replacing the former
// per-event binary search (kept in the package tests as the reference the
// alias table is cross-checked against).
type globalScheduler struct {
	r         *rng.RNG
	totalRate float64
	invTotal  float64
	now       float64
	uniform   bool
	numEdges  int
	alias     *aliasTable // nil when uniform
}

func newGlobalScheduler(rates []float64, r *rng.RNG) *globalScheduler {
	s := &globalScheduler{r: r, numEdges: len(rates), uniform: true}
	for _, rate := range rates {
		if rate != rates[0] {
			s.uniform = false
			break
		}
	}
	if s.uniform {
		s.totalRate = rates[0] * float64(len(rates))
	} else {
		s.alias = newAliasTable(rates)
		for _, rate := range rates {
			s.totalRate += rate
		}
	}
	s.invTotal = 1 / s.totalRate
	return s
}

func (s *globalScheduler) next() (graph.EdgeID, float64) {
	s.now += s.r.ExpUnit() * s.invTotal
	if s.uniform {
		return graph.EdgeID(s.r.Intn(s.numEdges)), s.now
	}
	return graph.EdgeID(s.alias.pick(s.r)), s.now
}

// aliasTable is a Walker/Vose alias table over a fixed weight vector:
// construction is O(n), each pick is O(1) — one uniform slot, one coin.
type aliasTable struct {
	prob  []float64 // acceptance threshold of the home slot, in [0, 1]
	alias []int32   // donor index taken when the coin exceeds prob
}

// newAliasTable builds the table by Vose's stable two-stack method. Weights
// must be positive (the schedulers validate rates before reaching here).
func newAliasTable(weights []float64) *aliasTable {
	n := len(weights)
	t := &aliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	// Scale each weight so the average bucket holds exactly 1.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are exactly 1 up to float rounding.
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// pick returns an index distributed proportionally to the table's weights.
func (t *aliasTable) pick(r *rng.RNG) int32 {
	i := int32(r.Intn(len(t.prob)))
	if r.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}

// impliedProb returns the exact probability the table assigns to index i —
// used by tests to verify the construction against the input weights.
func (t *aliasTable) impliedProb(i int32) float64 {
	n := float64(len(t.prob))
	p := t.prob[i]
	for j, a := range t.alias {
		if a == i && int32(j) != i {
			p += 1 - t.prob[j]
		}
	}
	return p / n
}

// heapScheduler keeps one exponential timer per edge in a 4-ary min-heap —
// the paper's model verbatim. After an edge fires, its next tick is
// resampled, exploiting the memorylessness of the exponential distribution.
//
// The heap is 4-ary rather than binary: half the depth means half the
// cache lines touched per sift, and the four children of node i occupy one
// contiguous 64-byte run (heapEntry is 16 bytes), so the per-level scan is
// a single cache line. Tick times are continuous, so the minimum is unique
// with probability 1 and the popped event sequence — hence the RNG draw
// order — is identical to the binary heap's; the fused-versus-per-event
// bit-identity tests pin this.
type heapScheduler struct {
	r        *rng.RNG
	invRates []float64 // 1/rate per edge: resampling multiplies, never divides
	heap     []heapEntry
}

type heapEntry struct {
	at   float64
	edge graph.EdgeID
}

func newHeapScheduler(rates []float64, r *rng.RNG) *heapScheduler {
	s := &heapScheduler{r: r, invRates: make([]float64, len(rates)), heap: make([]heapEntry, 0, len(rates))}
	for e, rate := range rates {
		s.invRates[e] = 1 / rate
	}
	// Batched unit gaps, scaled per edge below.
	gaps := make([]float64, len(rates))
	r.FillExp(gaps, 1)
	for e := range rates {
		s.push(heapEntry{at: gaps[e] * s.invRates[e], edge: graph.EdgeID(e)})
	}
	return s
}

func (s *heapScheduler) next() (graph.EdgeID, float64) {
	top := s.heap[0]
	// Resample this edge's next tick and sift it down from the root.
	s.heap[0] = heapEntry{at: top.at + s.r.ExpUnit()*s.invRates[top.edge], edge: top.edge}
	s.siftDown(0)
	return top.edge, top.at
}

func (s *heapScheduler) push(e heapEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	// Hole insertion: slide parents down instead of swapping, one store
	// per level plus the final placement.
	for i > 0 {
		parent := (i - 1) / 4
		if s.heap[parent].at <= e.at {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = e
}

// siftDown restores the 4-ary heap property from index i. The moving
// entry is held in a register and children slide up into the hole — one
// store per level instead of a three-store swap — and the four-child
// minimum scan is an unconditional four-way compare chain over one
// contiguous cache line, with the (rare) tail of the array handled by a
// separate partial scan.
func (s *heapScheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	moving := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		minIdx := first
		minAt := h[first].at
		if first+4 <= n {
			// Full fan-out: all four children exist.
			if h[first+1].at < minAt {
				minIdx, minAt = first+1, h[first+1].at
			}
			if h[first+2].at < minAt {
				minIdx, minAt = first+2, h[first+2].at
			}
			if h[first+3].at < minAt {
				minIdx, minAt = first+3, h[first+3].at
			}
		} else {
			for c := first + 1; c < n; c++ {
				if h[c].at < minAt {
					minIdx, minAt = c, h[c].at
				}
			}
		}
		if minAt >= moving.at {
			break
		}
		h[i] = h[minIdx]
		i = minIdx
	}
	h[i] = moving
}
