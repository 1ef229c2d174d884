// Package graph provides the immutable undirected-graph substrate used by
// every simulator and experiment in this repository: a compact adjacency
// representation, a validating builder, a library of generators (complete
// graphs, dumbbells, random graphs, geometric graphs, ...), vertex
// partitions with cut/conductance accounting, traversal utilities, and
// plain-text I/O.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected.
// Nodes are identified by dense integer IDs in [0, NumNodes), edges by dense
// IDs in [0, NumEdges) — both are stable for the lifetime of the graph,
// which lets simulators index per-edge state with plain slices.
//
// Key types: Graph (immutable, CSR adjacency), Partition (two-way cut accounting), the generator zoo in generators.go/composites.go. See DESIGN.md §1 for the layout and §7 for the family registry built on top.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a vertex. IDs are dense: 0 <= id < NumNodes().
type NodeID int32

// EdgeID identifies an edge. IDs are dense: 0 <= id < NumEdges().
type EdgeID int32

// Edge is an undirected edge between two distinct nodes. The constructor
// normalises so that U < V.
type Edge struct {
	U, V NodeID
}

// NewEdge returns the normalised edge {u, v} with U < V.
func NewEdge(u, v NodeID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x NodeID) NodeID {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", x, e))
}

// String renders the edge as "u-v".
func (e Edge) String() string { return fmt.Sprintf("%d-%d", e.U, e.V) }

// HalfEdge is one directed half of an undirected edge as seen from a node's
// adjacency list.
type HalfEdge struct {
	Peer NodeID // the neighbouring node
	Edge EdgeID // the undirected edge connecting them
}

// Graph is an immutable simple undirected graph. Construct with a Builder
// or one of the generators. The zero value is an empty graph with no nodes.
type Graph struct {
	name  string
	edges []Edge
	adj   [][]HalfEdge
	// pos holds optional 2-D coordinates (geometric generators); nil otherwise.
	pos []Point

	// Flat mirrors of edges/adj, built once at Build() time so simulation
	// kernels can resolve an edge's endpoints or a node's neighbourhood with
	// plain int32 array indexing instead of Edge struct loads or slice-of-
	// slice pointer chasing.
	edgeU, edgeV []int32 // endpoints of edge id, edgeU[id] < edgeV[id]
	csrOff       []int32 // CSR offsets, len NumNodes()+1
	csrPeer      []int32 // neighbour of the half-edge, len 2*NumEdges()
	csrEdge      []int32 // undirected edge id of the half-edge, len 2*NumEdges()
}

// Point is a 2-D coordinate attached to nodes of geometric graphs.
type Point struct {
	X, Y float64
}

// Name returns the human-readable graph name ("" if unset).
func (g *Graph) Name() string { return g.name }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the endpoints of edge id. It panics on an out-of-range id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the full edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeU returns the flat lower-endpoint array: EdgeU()[id] and EdgeV()[id]
// are the endpoints of edge id with EdgeU()[id] < EdgeV()[id]. Hot loops
// index it directly instead of loading Edge structs. The caller must not
// modify it.
func (g *Graph) EdgeU() []int32 { return g.edgeU }

// EdgeV returns the flat upper-endpoint array; see EdgeU. The caller must
// not modify it.
func (g *Graph) EdgeV() []int32 { return g.edgeV }

// CSR returns the compressed-sparse-row adjacency: the half-edges of node u
// are peers[offsets[u]:offsets[u+1]] (sorted by peer id, matching
// Neighbors), and edges[k] is the undirected edge id of half-edge k. The
// caller must not modify the returned slices.
func (g *Graph) CSR() (offsets, peers, edges []int32) {
	return g.csrOff, g.csrPeer, g.csrEdge
}

// Degree returns the number of neighbours of node u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// Neighbors returns u's adjacency list, sorted by peer id. The caller must
// not modify it.
func (g *Graph) Neighbors(u NodeID) []HalfEdge { return g.adj[u] }

// MaxDegree returns the largest degree in the graph (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	m := 0
	for _, a := range g.adj {
		if len(a) > m {
			m = len(a)
		}
	}
	return m
}

// HasPositions reports whether nodes carry geometric coordinates.
func (g *Graph) HasPositions() bool { return g.pos != nil }

// Position returns the coordinate of node u, or the zero Point when the
// graph carries no positions.
func (g *Graph) Position(u NodeID) Point {
	if g.pos == nil {
		return Point{}
	}
	return g.pos[u]
}

// FindEdge returns the edge id connecting u and v, if any.
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	if int(u) >= g.NumNodes() || int(v) >= g.NumNodes() || u < 0 || v < 0 {
		return 0, false
	}
	// Scan the shorter adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, he := range g.adj[u] {
		if he.Peer == v {
			return he.Edge, true
		}
	}
	return 0, false
}

// String renders a short description like "dumbbell(n=64): 64 nodes, 993 edges".
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s: %d nodes, %d edges", name, g.NumNodes(), g.NumEdges())
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is ready to use. Builders are not safe for concurrent use.
type Builder struct {
	n     int
	edges map[Edge]struct{}
	order []Edge // insertion order, for deterministic edge IDs
	name  string
	pos   []Point
	err   error
}

// NewBuilder returns a builder for a graph with n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	b := &Builder{edges: make(map[Edge]struct{})}
	if n < 0 {
		b.err = fmt.Errorf("graph: negative node count %d", n)
		return b
	}
	if err := checkIndexSpace(n, 0); err != nil {
		b.err = err
		return b
	}
	b.n = n
	return b
}

// SetName sets the graph's human-readable name.
func (b *Builder) SetName(name string) *Builder {
	b.name = name
	return b
}

// SetPositions attaches 2-D coordinates; len(pos) must equal the node count
// at Build time.
func (b *Builder) SetPositions(pos []Point) *Builder {
	b.pos = pos
	return b
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and out-of-range
// endpoints are recorded as errors reported by Build; duplicate edges are
// ignored so generators may be sloppy about double insertion.
func (b *Builder) AddEdge(u, v NodeID) *Builder {
	if b.err != nil {
		return b
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at node %d", u)
		return b
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		b.err = fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		return b
	}
	e := NewEdge(u, v)
	if _, dup := b.edges[e]; dup {
		return b
	}
	b.edges[e] = struct{}{}
	b.order = append(b.order, e)
	return b
}

// HasEdge reports whether {u,v} has been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	_, ok := b.edges[NewEdge(u, v)]
	return ok
}

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return len(b.order) }

// Build validates and returns the immutable graph. The builder may be
// reused afterwards (further AddEdge calls do not affect the built graph).
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.pos != nil && len(b.pos) != b.n {
		return nil, fmt.Errorf("graph: %d positions for %d nodes", len(b.pos), b.n)
	}
	if err := checkIndexSpace(b.n, len(b.order)); err != nil {
		return nil, err
	}
	g := &Graph{
		name:  b.name,
		edges: append([]Edge(nil), b.order...),
		adj:   make([][]HalfEdge, b.n),
	}
	if b.pos != nil {
		g.pos = append([]Point(nil), b.pos...)
	}
	// CSR offsets from the degrees, then every adjacency list carved out
	// of one backing array: two allocations instead of a growing slice per
	// node.
	g.csrOff = make([]int32, b.n+1)
	for _, e := range g.edges {
		g.csrOff[e.U+1]++
		g.csrOff[e.V+1]++
	}
	for u := 0; u < b.n; u++ {
		g.csrOff[u+1] += g.csrOff[u]
	}
	half := make([]HalfEdge, 2*len(g.edges))
	next := append([]int32(nil), g.csrOff[:b.n]...)
	for id, e := range g.edges {
		half[next[e.U]] = HalfEdge{Peer: e.V, Edge: EdgeID(id)}
		next[e.U]++
		half[next[e.V]] = HalfEdge{Peer: e.U, Edge: EdgeID(id)}
		next[e.V]++
	}
	for u := range g.adj {
		lo, hi := g.csrOff[u], g.csrOff[u+1]
		if lo == hi {
			continue // an isolated node keeps a nil list
		}
		a := half[lo:hi:hi]
		// Deterministic neighbour order regardless of insertion order (the
		// peers of a simple graph are distinct, so the order is unique).
		slices.SortFunc(a, func(x, y HalfEdge) int { return cmp.Compare(x.Peer, y.Peer) })
		g.adj[u] = a
	}
	// Flat endpoint arrays and CSR adjacency for simulation kernels.
	g.edgeU = make([]int32, len(g.edges))
	g.edgeV = make([]int32, len(g.edges))
	for id, e := range g.edges {
		g.edgeU[id] = int32(e.U)
		g.edgeV[id] = int32(e.V)
	}
	g.csrPeer = make([]int32, len(half))
	g.csrEdge = make([]int32, len(half))
	for k, he := range half {
		g.csrPeer[k] = int32(he.Peer)
		g.csrEdge[k] = int32(he.Edge)
	}
	return g, nil
}

// MustBuild is Build for generators with no failure mode; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// ErrTooLarge is returned (wrapped) when a graph would overflow the int32
// id space of the materialised representation: NodeID/EdgeID are int32, and
// the CSR half-edge arrays additionally need 2·|E| (plus the offset
// sentinel) to fit an int32. Callers hitting it should switch to the
// Implicit representation, whose edge ids are int64.
var ErrTooLarge = errors.New("graph: graph exceeds int32 index space")

// maxBuildEdges bounds |E| so 2·|E| half-edges plus the CSR offset
// sentinel stay representable: csrOff[n] = 2·|E| must fit an int32.
const maxBuildEdges = (math.MaxInt32 - 1) / 2

// checkIndexSpace validates node and edge counts against the int32 id
// space before Build commits to its large allocations.
func checkIndexSpace(nodes, edges int) error {
	if int64(nodes) > math.MaxInt32 {
		return fmt.Errorf("%w: %d nodes (max %d)", ErrTooLarge, nodes, math.MaxInt32)
	}
	if int64(edges) > maxBuildEdges {
		return fmt.Errorf("%w: %d edges (max %d)", ErrTooLarge, edges, maxBuildEdges)
	}
	return nil
}

// ErrDisconnected is returned by validators that require connectivity.
var ErrDisconnected = errors.New("graph: graph is not connected")

// RequireConnected returns ErrDisconnected (wrapped with the graph name)
// unless g is connected and non-empty.
func RequireConnected(g *Graph) error {
	if g.NumNodes() == 0 || !IsConnected(g) {
		return fmt.Errorf("%s: %w", g.String(), ErrDisconnected)
	}
	return nil
}
