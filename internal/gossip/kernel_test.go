package gossip

import (
	"math"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// tickLog is a sim.TickKernel that only records the ticked edges, so a
// test can replay an engine's event sequence through a reference.
type tickLog struct{ edges []graph.EdgeID }

func (l *tickLog) TickEdges(edges []graph.EdgeID, _ []float64) { l.edges = append(l.edges, edges...) }

func (l *tickLog) TickEdgeVar(e graph.EdgeID, _ float64) float64 {
	l.edges = append(l.edges, e)
	return 0
}

func (l *tickLog) Variance() float64 { return 0 }

// referenceGossip is the independent per-event oracle for the gossip
// rules: a plain value slice, centred by the initial mean exactly as the
// state layouts store it, with each rule written out inline and no moment
// bookkeeping. coins drives push-sum's direction choice.
func referenceGossip(rule string, g *graph.Graph, x0 []float64, alpha float64, coins *rng.RNG, ticks []graph.EdgeID) []float64 {
	n := len(x0)
	off := 0.0
	for _, v := range x0 {
		off += v
	}
	off /= float64(n)
	y := make([]float64, n)
	s := append([]float64(nil), x0...)
	w := make([]float64, n)
	for i, v := range x0 {
		y[i] = v - off
		w[i] = 1
	}
	for _, e := range ticks {
		i, j := int(g.Edge(e).U), int(g.Edge(e).V)
		xi, xj := y[i]+off, y[j]+off
		switch rule {
		case "vanilla":
			m := (xi + xj) / 2
			y[i], y[j] = m-off, m-off
		case "convex":
			y[i] = alpha*xi + (1-alpha)*xj - off
			y[j] = alpha*xj + (1-alpha)*xi - off
		case "push-sum":
			if coins.Float64() < 0.5 {
				i, j = j, i
			}
			hs, hw := s[i]/2, w[i]/2
			s[i], w[i] = s[i]-hs, w[i]-hw
			s[j], w[j] = s[j]+hs, w[j]+hw
			y[i], y[j] = s[i]/w[i]-off, s[j]/w[j]-off
		default:
			panic("unknown rule " + rule)
		}
	}
	for i := range y {
		y[i] += off
	}
	return y
}

// Every engine path — the fused batch loop (RunEvents → TickEdges), the
// per-event loop (Run → TickEdgeVar) and the estimator's tracked loop
// (RunTracked) — must leave values bit-identical to the reference replay
// of the same event sequence, for every rule.
func TestKernelBitIdenticalToReference(t *testing.T) {
	g, _, err := graph.Dumbbell(24, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A generic, far-from-zero mean, so the centring offset's round trip
	// is part of what is compared.
	x0 := UniformRandom(rng.New(5), g.NumNodes())
	for i := range x0 {
		x0[i] += 7
	}
	const (
		seed   = 42
		events = 20000
		alpha  = 0.3
	)
	log := &tickLog{}
	engLog, err := sim.NewEngine(g, log, sim.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	tEnd, _ := engLog.RunEvents(events)

	builders := []struct {
		rule string
		make func() (Algorithm, error)
	}{
		{"vanilla", func() (Algorithm, error) { return NewVanilla(g, x0) }},
		{"convex", func() (Algorithm, error) { return NewConvex(g, x0, alpha) }},
		{"push-sum", func() (Algorithm, error) { return NewPushSum(g, x0, rng.New(9)) }},
	}
	paths := []struct {
		name string
		run  func(*sim.Engine)
	}{
		{"fused", func(e *sim.Engine) { e.RunEvents(events) }},
		{"eager", func(e *sim.Engine) { e.Run(sim.MaxEvents(events)) }},
		// StopLevel -1 never stops early; the run ends at the first event
		// time >= tEnd, which is exactly the events-th event.
		{"tracked", func(e *sim.Engine) { e.RunTracked(sim.Tracked{ExceedLevel: 1, StopLevel: -1, MaxTime: tEnd}) }},
	}
	for _, b := range builders {
		want := referenceGossip(b.rule, g, x0, alpha, rng.New(9), log.edges)
		wantVar := directVariance(want)
		for _, p := range paths {
			alg, err := b.make()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := sim.NewEngine(g, alg, sim.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			p.run(eng)
			if eng.Events() != events || eng.Now() != tEnd {
				t.Fatalf("%s/%s: ran %d events to t=%v, want %d to t=%v", b.rule, p.name, eng.Events(), eng.Now(), events, tEnd)
			}
			got := alg.Values()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%s: value %d = %v, reference %v (not bit-identical)", b.rule, p.name, i, got[i], want[i])
				}
			}
			// Incremental and resynced moments agree with the direct
			// two-pass variance to float accumulation error.
			if d := relDiff(alg.Variance(), wantVar); d > 1e-9 {
				t.Errorf("%s/%s: variance %v, reference %v (rel %g)", b.rule, p.name, alg.Variance(), wantVar, d)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b || math.Abs(a-b) < 1e-12 {
		return 0 // agreement to absolute float-noise level
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// The fused two-point updates must be bit-identical to the Set sequences
// they replace, including the maintained moments.
func TestFusedStateUpdatesMatchSetPairs(t *testing.T) {
	x0 := []float64{3, -1, 4, 1.5, -9, 2.6}
	r := rng.New(5)
	a, b := NewState(x0), NewState(x0)
	for step := 0; step < 2000; step++ {
		i := r.Intn(len(x0))
		j := (i + 1 + r.Intn(len(x0)-1)) % len(x0)
		switch step % 3 {
		case 0: // vanilla average
			avg := (a.Get(i) + a.Get(j)) / 2
			a.Set(i, avg)
			a.Set(j, avg)
			b.AverageEdge(i, j)
		case 1: // convex
			// A float64 variable, not a constant: 1-alpha must round at
			// runtime exactly as the algorithm's field does.
			alpha := float64(0.7)
			xi, xj := a.Get(i), a.Get(j)
			a.Set(i, alpha*xi+(1-alpha)*xj)
			a.Set(j, alpha*xj+(1-alpha)*xi)
			b.ConvexEdge(i, j, alpha)
		default: // arbitrary two-point assignment
			vi, vj := a.Get(j)*1.25, a.Get(i)*0.75
			a.Set(i, vi)
			a.Set(j, vj)
			b.Set2(i, j, vi, vj)
		}
		for u := 0; u < a.N(); u++ {
			if math.Float64bits(a.Get(u)) != math.Float64bits(b.Get(u)) {
				t.Fatalf("step %d: value %d = %v vs %v", step, u, a.Get(u), b.Get(u))
			}
		}
		if math.Float64bits(a.Variance()) != math.Float64bits(b.Variance()) {
			t.Fatalf("step %d: variance %v vs %v", step, a.Variance(), b.Variance())
		}
	}
}

// The lazy batch updates must leave values bit-identical and the moments
// exact after the next read.
func TestLazyBatchUpdatesMatchEager(t *testing.T) {
	g, _, err := graph.Dumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, g.NumNodes())
	r := rng.New(77)
	for i := range x0 {
		x0[i] = r.Float64()*10 - 5
	}
	eager, lazy := NewState(x0), NewState(x0)
	edges := make([]graph.EdgeID, 500)
	for k := range edges {
		edges[k] = graph.EdgeID(r.Intn(g.NumEdges()))
	}
	eu, ev := g.EdgeU(), g.EdgeV()
	for _, e := range edges {
		eager.AverageEdge(int(eu[e]), int(ev[e]))
	}
	lazy.AverageEdgesLazy(edges, eu, ev)
	for u := 0; u < eager.N(); u++ {
		if math.Float64bits(eager.Get(u)) != math.Float64bits(lazy.Get(u)) {
			t.Fatalf("value %d = %v eager vs %v lazy", u, eager.Get(u), lazy.Get(u))
		}
	}
	if d := relDiff(eager.Variance(), lazy.Variance()); d > 1e-12 {
		t.Errorf("variance %v eager vs %v lazy", eager.Variance(), lazy.Variance())
	}
	if d := relDiff(eager.Mean(), lazy.Mean()); d > 1e-12 {
		t.Errorf("mean %v eager vs %v lazy", eager.Mean(), lazy.Mean())
	}
	if d := relDiff(eager.Sum(), lazy.Sum()); d > 1e-12 {
		t.Errorf("sum %v eager vs %v lazy", eager.Sum(), lazy.Sum())
	}

	// Convex lazy variant.
	eagerC, lazyC := NewState(x0), NewState(x0)
	for _, e := range edges {
		eagerC.ConvexEdge(int(eu[e]), int(ev[e]), 0.8)
	}
	lazyC.ConvexEdgesLazy(edges, eu, ev, 0.8)
	for u := 0; u < eagerC.N(); u++ {
		if math.Float64bits(eagerC.Get(u)) != math.Float64bits(lazyC.Get(u)) {
			t.Fatalf("convex value %d = %v eager vs %v lazy", u, eagerC.Get(u), lazyC.Get(u))
		}
	}
	if d := relDiff(eagerC.Variance(), lazyC.Variance()); d > 1e-12 {
		t.Errorf("convex variance %v eager vs %v lazy", eagerC.Variance(), lazyC.Variance())
	}
}

func TestCopyInto(t *testing.T) {
	x0 := []float64{1, 2, 3, 4}
	s := NewState(x0)
	dst := make([]float64, 4)
	s.CopyInto(dst)
	vals := s.Values()
	for i := range vals {
		if math.Float64bits(dst[i]) != math.Float64bits(vals[i]) {
			t.Errorf("CopyInto[%d] = %v, Values = %v", i, dst[i], vals[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch not rejected")
		}
	}()
	s.CopyInto(make([]float64, 3))
}
