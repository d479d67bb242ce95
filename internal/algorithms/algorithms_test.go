package algorithms

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// testGraph loads a small directed graph used across the tests:
//
//	1 → 2, 1 → 3, 2 → 3, 3 → 1, 4 → 3   (5 edges, 4 vertices)
func testGraph(t *testing.T) *core.Graph {
	t.Helper()
	db := engine.New()
	g, err := core.CreateGraph(db, "t")
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

// refPageRank is the plain in-memory oracle, same conventions as the
// vertex program (no dangling redistribution).
func refPageRank(n int, edges map[int64][]int64, iters int, d float64) map[int64]float64 {
	rank := make(map[int64]float64, n)
	var ids []int64
	for src := range edges {
		ids = append(ids, src)
	}
	seen := map[int64]bool{}
	for src, dsts := range edges {
		seen[src] = true
		for _, dst := range dsts {
			if !seen[dst] {
				seen[dst] = true
				ids = append(ids, dst)
			}
		}
	}
	for id := range seen {
		rank[id] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make(map[int64]float64, n)
		for id := range rank {
			next[id] = (1 - d) / float64(n)
		}
		for src, dsts := range edges {
			share := d * rank[src] / float64(len(dsts))
			for _, dst := range dsts {
				next[dst] += share
			}
		}
		rank = next
	}
	return rank
}

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph(t)
	got, stats, err := RunPageRank(context.Background(), g, 10, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := refPageRank(4, map[int64][]int64{1: {2, 3}, 2: {3}, 3: {1}, 4: {3}}, 10, 0.85)
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-9 {
			t.Errorf("rank(%d) = %.12f, want %.12f", id, got[id], w)
		}
	}
	if stats.Supersteps != 12 { // steps 0..10 compute, step 11 confirms halt
		t.Logf("supersteps = %d", stats.Supersteps)
	}
}

func TestPageRankEpsilonStopsEarly(t *testing.T) {
	g := testGraph(t)
	if err := g.ResetForRun(func(int64) string { return "" }); err != nil {
		t.Fatal(err)
	}
	prog := &PageRank{Iterations: 500, Damping: 0.85, Epsilon: 0.5}
	stats, err := core.Run(context.Background(), g, prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps >= 500 {
		t.Errorf("epsilon termination did not kick in: %d supersteps", stats.Supersteps)
	}
}

// dijkstra is the SSSP oracle.
func dijkstra(edges []core.Edge, source int64, unit bool) map[int64]float64 {
	adj := map[int64][]core.Edge{}
	nodes := map[int64]bool{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e)
		nodes[e.Src], nodes[e.Dst] = true, true
	}
	dist := map[int64]float64{}
	for n := range nodes {
		dist[n] = math.Inf(1)
	}
	dist[source] = 0
	visited := map[int64]bool{}
	for {
		best, bd := int64(-1), math.Inf(1)
		for n, d := range dist {
			if !visited[n] && d < bd {
				best, bd = n, d
			}
		}
		if best == -1 {
			return dist
		}
		visited[best] = true
		for _, e := range adj[best] {
			w := e.Weight
			if unit || w <= 0 {
				w = 1
			}
			if nd := bd + w; nd < dist[e.Dst] {
				dist[e.Dst] = nd
			}
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	edges := []core.Edge{
		{Src: 1, Dst: 2, Weight: 1}, {Src: 1, Dst: 3, Weight: 4},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 1, Weight: 2},
		{Src: 4, Dst: 3, Weight: 1},
	}
	for _, unit := range []bool{false, true} {
		g := testGraph(t)
		got, _, err := RunSSSP(context.Background(), g, 1, unit, core.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := dijkstra(edges, 1, unit)
		for id, w := range want {
			if got[id] != w && !(math.IsInf(got[id], 1) && math.IsInf(w, 1)) {
				t.Errorf("unit=%v dist(%d) = %v, want %v", unit, id, got[id], w)
			}
		}
	}
}

func TestSSSPUnreachableIsInf(t *testing.T) {
	g := testGraph(t)
	got, _, err := RunSSSP(context.Background(), g, 2, true, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 has no in-edges, unreachable from 2.
	if !math.IsInf(got[4], 1) {
		t.Errorf("dist(4) = %v, want +Inf", got[4])
	}
}

func TestConnectedComponents(t *testing.T) {
	db := engine.New()
	g, _ := core.CreateGraph(db, "cc")
	// Two components (symmetrized edges): {1,2,3} and {7,8}.
	edges := []core.Edge{
		{Src: 1, Dst: 2}, {Src: 2, Dst: 1},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 2},
		{Src: 7, Dst: 8}, {Src: 8, Dst: 7},
	}
	if err := g.BulkLoad(nil, edges); err != nil {
		t.Fatal(err)
	}
	labels, _, err := RunConnectedComponents(context.Background(), g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if labels[1] != 1 || labels[2] != 1 || labels[3] != 1 {
		t.Errorf("component A labels: %v", labels)
	}
	if labels[7] != 7 || labels[8] != 7 {
		t.Errorf("component B labels: %v", labels)
	}
}

func TestCollabFilterLearnsRatings(t *testing.T) {
	db := engine.New()
	g, _ := core.CreateGraph(db, "cf")
	// Bipartite: users 1,2; items 101,102. Ratings symmetric edges.
	rate := func(u, it int64, r float64) []core.Edge {
		return []core.Edge{{Src: u, Dst: it, Weight: r}, {Src: it, Dst: u, Weight: r}}
	}
	var edges []core.Edge
	edges = append(edges, rate(1, 101, 5)...)
	edges = append(edges, rate(1, 102, 1)...)
	edges = append(edges, rate(2, 101, 4)...)
	if err := g.BulkLoad(nil, edges); err != nil {
		t.Fatal(err)
	}
	prog := NewCollabFilter(4, 60)
	vecs, _, err := RunCollabFilter(context.Background(), g, prog, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p1, ok := Predict(vecs, 1, 101)
	if !ok {
		t.Fatal("missing vectors")
	}
	p2, _ := Predict(vecs, 1, 102)
	if math.Abs(p1-5) > 1.0 {
		t.Errorf("predicted rating(1,101) = %.3f, want ≈5", p1)
	}
	if math.Abs(p2-1) > 1.0 {
		t.Errorf("predicted rating(1,102) = %.3f, want ≈1", p2)
	}
	if p1 <= p2 {
		t.Errorf("preference order lost: %.3f <= %.3f", p1, p2)
	}
}

func TestRandomWalkRestartConcentratesNearSource(t *testing.T) {
	g := testGraph(t)
	scores, _, err := RunRandomWalkRestart(context.Background(), g, 1, 30, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if scores[1] <= scores[4] {
		t.Errorf("source score %.4f should exceed far vertex %.4f", scores[1], scores[4])
	}
	total := 0.0
	for _, s := range scores {
		total += s
	}
	if total <= 0 || total > 1.2 {
		t.Errorf("scores look unnormalized: total=%.4f", total)
	}
}

func TestDegreeCount(t *testing.T) {
	g := testGraph(t)
	if err := g.ResetForRun(func(int64) string { return "" }); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(context.Background(), g, DegreeCount{}, core.Options{}); err != nil {
		t.Fatal(err)
	}
	vals, _ := g.VertexValues()
	if vals[3] != "3,1" { // in-degree 3 (from 1,2,4), out-degree 1
		t.Errorf("vertex 3 degrees = %q, want \"3,1\"", vals[3])
	}
}

func TestVecCodecRoundTrip(t *testing.T) {
	in := []float64{0.5, -1.25, 3}
	out, err := decodeVec(encodeVec(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("vec[%d] = %v, want %v", i, out[i], in[i])
		}
	}
	if _, err := decodeVec("1,2", 3); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := decodeVec("", 3); err == nil {
		t.Error("empty vector should error")
	}
	if _, err := decodeVec("a,b,c", 3); err == nil {
		t.Error("garbage should error")
	}
}

func TestParseFloatDefaults(t *testing.T) {
	if v := parseFloat("", 42); v != 42 {
		t.Error("empty should default")
	}
	if v := parseFloat("junk", 7); v != 7 {
		t.Error("junk should default")
	}
	if v := parseFloat("+Inf", 0); !math.IsInf(v, 1) {
		t.Error("inf should parse")
	}
}
