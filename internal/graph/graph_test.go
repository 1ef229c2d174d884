package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"sparsecut/internal/rng"
)

func TestNewEdgeNormalises(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %v, want 2-5", e)
	}
	if e.String() != "2-5" {
		t.Errorf("String = %q", e.String())
	}
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(1, 4)
	if e.Other(1) != 4 || e.Other(4) != 1 {
		t.Error("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	e.Other(2)
}

func TestBuilderBasic(t *testing.T) {
	g, err := NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Error("wrong degrees")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	if _, err := NewBuilder(2).AddEdge(1, 1).Build(); err == nil {
		t.Error("self-loop not rejected")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	if _, err := NewBuilder(2).AddEdge(0, 2).Build(); err == nil {
		t.Error("out-of-range edge not rejected")
	}
	if _, err := NewBuilder(2).AddEdge(-1, 0).Build(); err == nil {
		t.Error("negative endpoint not rejected")
	}
}

func TestBuilderRejectsNegativeN(t *testing.T) {
	if _, err := NewBuilder(-1).Build(); err == nil {
		t.Error("negative node count not rejected")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g, err := NewBuilder(2).AddEdge(0, 1).AddEdge(1, 0).AddEdge(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("got %d edges, want 1", g.NumEdges())
	}
}

func TestBuilderPositionLengthMismatch(t *testing.T) {
	if _, err := NewBuilder(2).SetPositions([]Point{{}}).Build(); err == nil {
		t.Error("position length mismatch not rejected")
	}
}

func TestFindEdge(t *testing.T) {
	g := Path(4)
	id, ok := g.FindEdge(1, 2)
	if !ok {
		t.Fatal("edge 1-2 not found")
	}
	if e := g.Edge(id); e != NewEdge(1, 2) {
		t.Errorf("FindEdge returned edge %v", e)
	}
	if _, ok := g.FindEdge(0, 3); ok {
		t.Error("nonexistent edge reported found")
	}
	if _, ok := g.FindEdge(0, 99); ok {
		t.Error("out-of-range node reported found")
	}
	// Symmetric lookup.
	id2, ok := g.FindEdge(2, 1)
	if !ok || id2 != id {
		t.Error("FindEdge not symmetric")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 3).AddEdge(0, 1).AddEdge(0, 2).MustBuild()
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1].Peer >= nb[i].Peer {
			t.Fatalf("neighbours not sorted: %v", nb)
		}
	}
}

// The adjacency lists share one backing array, so each is capped at its
// length: appending to one node's list must never write into the next
// node's. An isolated node's list stays nil.
func TestNeighborsOwnCapacity(t *testing.T) {
	g := NewBuilder(5).AddEdge(3, 0).AddEdge(0, 1).AddEdge(1, 3).AddEdge(2, 1).MustBuild()
	want := [][]HalfEdge{
		{{Peer: 1, Edge: 1}, {Peer: 3, Edge: 0}},
		{{Peer: 0, Edge: 1}, {Peer: 2, Edge: 3}, {Peer: 3, Edge: 2}},
		{{Peer: 1, Edge: 3}},
		{{Peer: 0, Edge: 0}, {Peer: 1, Edge: 2}},
		nil,
	}
	for u := range want {
		nb := g.Neighbors(NodeID(u))
		if cap(nb) != len(nb) {
			t.Errorf("node %d: cap %d > len %d", u, cap(nb), len(nb))
		}
		_ = append(nb, HalfEdge{Peer: 99, Edge: 99})
	}
	for u, w := range want {
		nb := g.Neighbors(NodeID(u))
		if (nb == nil) != (w == nil) || len(nb) != len(w) {
			t.Fatalf("node %d: neighbours %v, want %v", u, nb, w)
		}
		for k := range w {
			if nb[k] != w[k] {
				t.Errorf("node %d: neighbours %v, want %v", u, nb, w)
			}
		}
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Error("zero-value graph not empty")
	}
	if g.HasPositions() {
		t.Error("zero-value graph claims positions")
	}
	if g.Position(0) != (Point{}) {
		t.Error("zero-value position not zero")
	}
}

func TestGraphString(t *testing.T) {
	g := Complete(4)
	s := g.String()
	if !strings.Contains(s, "4 nodes") || !strings.Contains(s, "6 edges") {
		t.Errorf("String = %q", s)
	}
}

func TestRequireConnected(t *testing.T) {
	if err := RequireConnected(Path(5)); err != nil {
		t.Errorf("path reported disconnected: %v", err)
	}
	g := NewBuilder(3).AddEdge(0, 1).MustBuild()
	if err := RequireConnected(g); err == nil {
		t.Error("disconnected graph passed RequireConnected")
	}
}

// Property: for every generator output, sum of degrees equals 2|E| and
// every edge id round-trips through the adjacency structure.
func TestDegreeSumInvariant(t *testing.T) {
	r := rng.New(99)
	graphs := []*Graph{
		Complete(7), Path(9), Cycle(6), Star(8), Grid(3, 5), Torus(3, 4),
		Hypercube(4), CompleteBipartite(3, 4), BinaryTree(4), Lollipop(5, 3),
		GnP(r, 20, 0.3), RGG(r, 25, 0.4),
	}
	for _, g := range graphs {
		if got, want := DegreeSum(g), 2*g.NumEdges(); got != want {
			t.Errorf("%s: degree sum %d != 2|E| = %d", g, got, want)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, he := range g.Neighbors(NodeID(u)) {
				e := g.Edge(he.Edge)
				if e.Other(NodeID(u)) != he.Peer {
					t.Errorf("%s: adjacency inconsistent at node %d", g, u)
				}
			}
		}
	}
}

func TestBuilderEdgeIDsAreInsertionOrdered(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if g.Edge(0) != NewEdge(2, 3) || g.Edge(1) != NewEdge(0, 1) {
		t.Error("edge IDs do not follow insertion order")
	}
}

func TestBuilderQuickProperty(t *testing.T) {
	r := rng.New(7)
	if err := quick.Check(func(nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw % 60)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// No duplicates: every unordered pair appears at most once.
		seen := map[Edge]bool{}
		for _, e := range g.Edges() {
			if seen[e] || e.U == e.V || e.U > e.V {
				return false
			}
			seen[e] = true
		}
		return DegreeSum(g) == 2*g.NumEdges()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// The flat endpoint arrays and CSR adjacency built at Build time must
// mirror Edges() and Neighbors() exactly.
func TestFlatArraysAndCSR(t *testing.T) {
	g, _, err := Dumbbell(9, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	eu, ev := g.EdgeU(), g.EdgeV()
	if len(eu) != g.NumEdges() || len(ev) != g.NumEdges() {
		t.Fatalf("flat arrays have %d/%d entries for %d edges", len(eu), len(ev), g.NumEdges())
	}
	for id, e := range g.Edges() {
		if NodeID(eu[id]) != e.U || NodeID(ev[id]) != e.V {
			t.Errorf("edge %d: flat (%d,%d) vs struct %v", id, eu[id], ev[id], e)
		}
		if eu[id] >= ev[id] {
			t.Errorf("edge %d: endpoints not ordered: %d >= %d", id, eu[id], ev[id])
		}
	}
	off, peers, edges := g.CSR()
	if len(off) != g.NumNodes()+1 {
		t.Fatalf("CSR offsets length %d for %d nodes", len(off), g.NumNodes())
	}
	if int(off[g.NumNodes()]) != 2*g.NumEdges() || len(peers) != 2*g.NumEdges() || len(edges) != 2*g.NumEdges() {
		t.Fatalf("CSR half-edge count mismatch")
	}
	for u := 0; u < g.NumNodes(); u++ {
		adj := g.Neighbors(NodeID(u))
		lo, hi := off[u], off[u+1]
		if int(hi-lo) != len(adj) {
			t.Fatalf("node %d: CSR row %d entries vs %d neighbours", u, hi-lo, len(adj))
		}
		for k, he := range adj {
			if NodeID(peers[lo+int32(k)]) != he.Peer || EdgeID(edges[lo+int32(k)]) != he.Edge {
				t.Errorf("node %d half-edge %d: CSR (%d,%d) vs adj %+v", u, k, peers[lo+int32(k)], edges[lo+int32(k)], he)
			}
		}
	}
}

// An empty graph exposes empty (not nil-panicking) flat views.
func TestFlatArraysEmptyGraph(t *testing.T) {
	g := NewBuilder(3).MustBuild()
	if len(g.EdgeU()) != 0 || len(g.EdgeV()) != 0 {
		t.Error("edgeless graph has flat endpoints")
	}
	off, _, _ := g.CSR()
	if len(off) != 4 {
		t.Errorf("offsets length %d, want 4", len(off))
	}
}
