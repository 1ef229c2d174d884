// Package sim implements the paper's timing model: every edge of a graph
// carries an independent Poisson clock, and an algorithm is invoked at each
// tick. The simulator is event-driven, deterministic given a seed, and
// offers two provably equivalent schedulers (per-edge clocks on a binary
// heap, and a single global clock at the total rate that picks an edge
// proportionally to its rate) — their statistical equivalence is exercised
// by the package tests.
//
// Key types: Engine (per-event loop), BatchEngine (replica-batched, Poisson time-bridging), SchedulerKind. The timing model is DESIGN.md §2; the engines are §6 and §8.
package sim

import (
	"errors"
	"fmt"
	"math"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// Observer is called after every processed event with the current simulated
// time and the number of events processed so far.
type Observer func(t float64, events int64)

// StopCondition inspects simulation progress after each event and returns
// true to halt. It is also consulted once before the first event.
type StopCondition func(t float64, events int64) bool

// Until stops once simulated time reaches maxT.
func Until(maxT float64) StopCondition {
	return func(t float64, _ int64) bool { return t >= maxT }
}

// MaxEvents stops after n processed events.
func MaxEvents(n int64) StopCondition {
	return func(_ float64, events int64) bool { return events >= n }
}

// AnyOf stops when any of the given conditions holds.
func AnyOf(conds ...StopCondition) StopCondition {
	return func(t float64, events int64) bool {
		for _, c := range conds {
			if c(t, events) {
				return true
			}
		}
		return false
	}
}

// SchedulerKind selects the event-generation strategy.
type SchedulerKind int

const (
	// GlobalClock draws inter-event gaps from Exp(sum of rates) and picks
	// the ticking edge proportionally to its rate. This is the default: it
	// is a single heap-free stream and is the textbook construction for
	// superposing Poisson processes.
	GlobalClock SchedulerKind = iota
	// PerEdgeClocks keeps an independent exponential timer per edge on a
	// binary heap — the model exactly as the paper states it.
	PerEdgeClocks
)

// String names the scheduler kind.
func (k SchedulerKind) String() string {
	switch k {
	case GlobalClock:
		return "global-clock"
	case PerEdgeClocks:
		return "per-edge-clocks"
	default:
		return fmt.Sprintf("scheduler(%d)", int(k))
	}
}

// Engine drives a TickKernel with Poisson edge ticks on a fixed graph.
//
// Run is the general loop (observers, arbitrary stop conditions): one
// TickEdgeVar per event. When no observers are registered, RunEvents and
// RunUntil take a fused batch path through TickEdges with identical
// semantics and random-stream consumption; RunTracked is the estimator's
// loop — see kernel.go.
type Engine struct {
	g         *graph.Graph
	kernel    TickKernel
	scheduler scheduler
	observers []Observer
	now       float64
	events    int64

	// Scratch for the fused kernel path, allocated once on first use.
	batchE []graph.EdgeID
	batchT []float64
}

// Option configures NewEngine.
type Option func(*config)

type config struct {
	kind      SchedulerKind
	seed      uint64
	rand      *rng.RNG
	rates     []float64
	observers []Observer
}

// WithScheduler selects the event-generation strategy (default GlobalClock).
func WithScheduler(kind SchedulerKind) Option {
	return func(c *config) { c.kind = kind }
}

// WithSeed seeds the engine's private RNG (default seed 1). Ignored when
// WithRNG is also given.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithRNG supplies an externally owned RNG, e.g. a Split stream of a
// trial-level generator.
func WithRNG(r *rng.RNG) Option {
	return func(c *config) { c.rand = r }
}

// WithRates sets per-edge clock rates; len must equal g.NumEdges() and all
// rates must be positive. The default is rate 1 on every edge, as in the
// paper.
func WithRates(rates []float64) Option {
	return func(c *config) { c.rates = rates }
}

// WithObserver registers an observer invoked after every event.
func WithObserver(obs Observer) Option {
	return func(c *config) { c.observers = append(c.observers, obs) }
}

// NewEngine builds an engine for g driving kernel. It returns an error for
// a nil kernel, an edgeless graph, or invalid rates.
func NewEngine(g *graph.Graph, kernel TickKernel, opts ...Option) (*Engine, error) {
	if kernel == nil {
		return nil, errors.New("sim: nil kernel")
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("sim: %s has no edges to tick", g)
	}
	cfg := config{kind: GlobalClock, seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.rand == nil {
		cfg.rand = rng.New(cfg.seed)
	}
	rates := cfg.rates
	if rates == nil {
		rates = make([]float64, g.NumEdges())
		for i := range rates {
			rates[i] = 1
		}
	}
	if len(rates) != g.NumEdges() {
		return nil, fmt.Errorf("sim: %d rates for %d edges", len(rates), g.NumEdges())
	}
	for i, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("sim: invalid rate %v for edge %d", r, i)
		}
	}
	var sched scheduler
	switch cfg.kind {
	case GlobalClock:
		sched = newGlobalScheduler(rates, cfg.rand)
	case PerEdgeClocks:
		sched = newHeapScheduler(rates, cfg.rand)
	default:
		return nil, fmt.Errorf("sim: unknown scheduler kind %d", cfg.kind)
	}
	return &Engine{
		g:         g,
		kernel:    kernel,
		scheduler: sched,
		observers: cfg.observers,
	}, nil
}

// Graph returns the simulated graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Events returns the number of ticks processed so far.
func (e *Engine) Events() int64 { return e.events }

// Run processes events until stop returns true, applying each through the
// kernel's TickEdgeVar, and reports the final simulated time and
// cumulative event count. Run may be called repeatedly; simulated time
// continues from where the previous call stopped.
func (e *Engine) Run(stop StopCondition) (t float64, events int64) {
	if stop == nil {
		panic("sim: Run requires a stop condition")
	}
	for !stop(e.now, e.events) {
		edge, at := e.scheduler.next()
		e.now = at
		e.kernel.TickEdgeVar(edge, at)
		e.events++
		for _, obs := range e.observers {
			obs(e.now, e.events)
		}
	}
	return e.now, e.events
}

// scheduler produces the next (edge, absolute time) tick. Implementations
// advance their internal clock on each call.
type scheduler interface {
	next() (graph.EdgeID, float64)
}
