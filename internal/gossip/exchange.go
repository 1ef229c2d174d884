package gossip

// The exchange rules. Each pairwise update the paper compares is written
// once, here, as a plain function over the two endpoint values, and every
// state layout (State, BatchState, FlatState) and every algorithm calls it
// from its own loop with its own moment bookkeeping. The functions are
// small enough for the compiler to inline into those loops (CI checks
// this), so writing the rule once costs nothing on the hot path.
//
// Values are stored centred by the initial mean; the rules round-trip
// through the offset so every layout stays bit-identical to gossip on the
// uncentred vector.

// averagePair is the vanilla exchange: both endpoints take the arithmetic
// mean of their uncentred values. It returns the common new centred value.
func averagePair(yi, yj, off float64) float64 {
	return ((yi+off)+(yj+off))/2 - off
}

// convexPair is the class-C exchange of Definition 2 with mixing
// parameter alpha:
//
//	x_i ← α·x_i + (1−α)·x_j,  x_j ← α·x_j + (1−α)·x_i(old)
//
// It returns the two new centred values.
func convexPair(yi, yj, off, alpha float64) (ci, cj float64) {
	xi, xj := yi+off, yj+off
	return alpha*xi + (1-alpha)*xj - off, alpha*xj + (1-alpha)*xi - off
}

// pushSumPair is push-sum's transfer: node from sends half of its mass
// pair (s, w) to node to. It returns the two endpoints' new estimates s/w.
// The caller draws the direction coin, from whichever stream it owns.
func pushSumPair(s, w []float64, from, to int) (estFrom, estTo float64) {
	halfS, halfW := s[from]/2, w[from]/2
	s[from] -= halfS
	w[from] -= halfW
	s[to] += halfS
	w[to] += halfW
	return s[from] / w[from], s[to] / w[to]
}
