package sqlgraph

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/engine"
)

func directedGraph(t *testing.T) *core.Graph {
	t.Helper()
	db := engine.New()
	g, err := core.CreateGraph(db, "d")
	if err != nil {
		t.Fatal(err)
	}
	edges := []core.Edge{
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 4},
		{Src: 2, Dst: 3, Weight: 1},
		{Src: 3, Dst: 1, Weight: 2},
		{Src: 4, Dst: 3, Weight: 1},
	}
	if err := g.BulkLoad(nil, edges); err != nil {
		t.Fatal(err)
	}
	return g
}

// undirectedGraph builds a symmetrized graph: square 1-2-3-4 plus
// diagonal 1-3, and a pendant 5-1.
func undirectedGraph(t *testing.T) *core.Graph {
	t.Helper()
	db := engine.New()
	g, err := core.CreateGraph(db, "u")
	if err != nil {
		t.Fatal(err)
	}
	und := [][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {1, 3}, {5, 1}}
	var edges []core.Edge
	for _, e := range und {
		edges = append(edges,
			core.Edge{Src: e[0], Dst: e[1], Weight: 1},
			core.Edge{Src: e[1], Dst: e[0], Weight: 1})
	}
	if err := g.BulkLoad(nil, edges); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSQLPageRankMatchesVertexCentric is the headline cross-system
// property: the hand-tuned SQL path and the vertex-centric path compute
// identical ranks.
func TestSQLPageRankMatchesVertexCentric(t *testing.T) {
	g := directedGraph(t)
	want, _, err := algorithms.RunPageRank(context.Background(), g, 10, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := PageRank(context.Background(), g, 10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rank cardinality: sql=%d vertex=%d", len(got), len(want))
	}
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("rank(%d): sql=%.12f vertex=%.12f", id, got[id], w)
		}
	}
}

func TestSQLPageRankOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		db := engine.New()
		g, err := core.CreateGraph(db, "r")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]int64]bool{}
		var edges []core.Edge
		for len(edges) < 60 {
			a, b := int64(rng.Intn(20)), int64(rng.Intn(20))
			if a == b || seen[[2]int64{a, b}] {
				continue
			}
			seen[[2]int64{a, b}] = true
			edges = append(edges, core.Edge{Src: a, Dst: b, Weight: 1})
		}
		if err := g.BulkLoad(nil, edges); err != nil {
			t.Fatal(err)
		}
		want, _, err := algorithms.RunPageRank(context.Background(), g, 6, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := PageRank(context.Background(), g, 6, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		for id, w := range want {
			if math.Abs(got[id]-w) > 1e-9 {
				t.Fatalf("trial %d rank(%d): sql=%.12f vertex=%.12f", trial, id, got[id], w)
			}
		}
	}
}

func TestSQLShortestPathsMatchesVertexCentric(t *testing.T) {
	for _, unit := range []bool{false, true} {
		g := directedGraph(t)
		want, _, err := algorithms.RunSSSP(context.Background(), g, 1, unit, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ShortestPaths(context.Background(), g, 1, unit)
		if err != nil {
			t.Fatal(err)
		}
		for id, w := range want {
			if math.IsInf(w, 1) {
				if _, ok := got[id]; ok {
					t.Errorf("unit=%v: vertex %d should be unreachable in SQL result", unit, id)
				}
				continue
			}
			if got[id] != w {
				t.Errorf("unit=%v dist(%d): sql=%v vertex=%v", unit, id, got[id], w)
			}
		}
	}
}

func TestSQLConnectedComponentsMatchesVertexCentric(t *testing.T) {
	g := undirectedGraph(t)
	want, _, err := algorithms.RunConnectedComponents(context.Background(), g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ConnectedComponents(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("label(%d): sql=%d vertex=%d", id, got[id], w)
		}
	}
}

// bruteTriangles is the oracle: enumerate all vertex triples.
func bruteTriangles(und [][2]int64) int64 {
	adj := map[[2]int64]bool{}
	nodes := map[int64]bool{}
	for _, e := range und {
		adj[[2]int64{e[0], e[1]}] = true
		adj[[2]int64{e[1], e[0]}] = true
		nodes[e[0]], nodes[e[1]] = true, true
	}
	var ids []int64
	for n := range nodes {
		ids = append(ids, n)
	}
	var count int64
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			for k := j + 1; k < len(ids); k++ {
				if adj[[2]int64{ids[i], ids[j]}] && adj[[2]int64{ids[j], ids[k]}] && adj[[2]int64{ids[i], ids[k]}] {
					count++
				}
			}
		}
	}
	return count
}

func TestTriangleCountMatchesBruteForce(t *testing.T) {
	g := undirectedGraph(t)
	got, err := TriangleCount(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTriangles([][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {1, 3}, {5, 1}})
	if got != want {
		t.Errorf("triangles = %d, want %d", got, want)
	}
}

func TestTriangleCountRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		var und [][2]int64
		seen := map[[2]int64]bool{}
		for len(und) < 25 {
			a, b := int64(rng.Intn(12)), int64(rng.Intn(12))
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int64{a, b}] {
				continue
			}
			seen[[2]int64{a, b}] = true
			und = append(und, [2]int64{a, b})
		}
		db := engine.New()
		g, _ := core.CreateGraph(db, "rt")
		var edges []core.Edge
		for _, e := range und {
			edges = append(edges,
				core.Edge{Src: e[0], Dst: e[1]}, core.Edge{Src: e[1], Dst: e[0]})
		}
		if err := g.BulkLoad(nil, edges); err != nil {
			t.Fatal(err)
		}
		got, err := TriangleCount(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteTriangles(und); got != want {
			t.Fatalf("trial %d: triangles = %d, want %d", trial, got, want)
		}
	}
}

func TestTriangleCountPerNode(t *testing.T) {
	g := undirectedGraph(t)
	got, err := TriangleCountPerNode(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Triangles: {1,2,3} and {1,3,4}. Vertex 1 and 3 in 2 each; 2 and 4 in 1.
	want := map[int64]int64{1: 2, 2: 1, 3: 2, 4: 1}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("tri(%d) = %d, want %d", id, got[id], w)
		}
	}
	if _, ok := got[5]; ok {
		t.Error("vertex 5 participates in no triangle")
	}
}

func TestStrongOverlap(t *testing.T) {
	g := undirectedGraph(t)
	pairs, err := StrongOverlap(context.Background(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Neighbors: 1:{2,3,4,5} 2:{1,3} 3:{1,2,4} 4:{1,3} 5:{1}.
	// Common ≥2: (2,4): {1,3} = 2; (1,3): {2,4} = 2.
	found := map[[2]int64]int64{}
	for _, p := range pairs {
		found[[2]int64{p.A, p.B}] = p.Common
	}
	if found[[2]int64{2, 4}] != 2 || found[[2]int64{1, 3}] != 2 {
		t.Errorf("overlap pairs wrong: %v", found)
	}
	if len(pairs) != 2 {
		t.Errorf("got %d pairs, want 2: %v", len(pairs), pairs)
	}
}

func TestWeakTies(t *testing.T) {
	g := undirectedGraph(t)
	ties, err := WeakTies(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 1 neighbors {2,3,4,5}: pairs (2,4),(2,5),(3,5),(4,5) are
	// disconnected → 4 open pairs. Vertex 3 neighbors {1,2,4}: (2,4)
	// disconnected → 1.
	got := map[int64]int64{}
	for _, w := range ties {
		got[w.ID] = w.Pairs
	}
	if got[1] != 4 {
		t.Errorf("weak ties at 1 = %d, want 4", got[1])
	}
	if got[3] != 1 {
		t.Errorf("weak ties at 3 = %d, want 1", got[3])
	}
	if _, ok := got[5]; ok {
		t.Error("degree-1 vertex cannot be a weak tie")
	}
}

func TestClusteringCoefficients(t *testing.T) {
	g := undirectedGraph(t)
	ccs, err := ClusteringCoefficients(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 2: deg 2, tri 1 → cc = 1. Vertex 1: deg 4, tri 2 → 2*2/12 = 1/3.
	if math.Abs(ccs[2]-1.0) > 1e-12 {
		t.Errorf("cc(2) = %v, want 1", ccs[2])
	}
	if math.Abs(ccs[1]-1.0/3.0) > 1e-12 {
		t.Errorf("cc(1) = %v, want 1/3", ccs[1])
	}
	id, cc, err := MostClusteredVertex(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if cc != 1.0 || (id != 2 && id != 4) {
		t.Errorf("most clustered = %d (%.3f), want 2 or 4 with 1.0", id, cc)
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	g := undirectedGraph(t)
	gcc, err := GlobalClusteringCoefficient(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// 2 triangles; wedges = Σ deg(v)(deg(v)-1)/2 = (4·3 + 2·1 + 3·2 + 2·1 + 1·0)/2 = 11.
	want := 3.0 * 2.0 / 11.0
	if math.Abs(gcc-want) > 1e-12 {
		t.Errorf("gcc = %v, want %v", gcc, want)
	}
}

func TestSQLScratchTablesCleanedUp(t *testing.T) {
	g := directedGraph(t)
	if _, err := PageRank(context.Background(), g, 3, 0.85); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.DB.Catalog().Names() {
		switch n {
		case g.VertexTable(), g.EdgeTable(), g.MessageTable():
		default:
			t.Errorf("scratch table %s left behind", n)
		}
	}
}
