package vertexica

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/giraph"
	"repro/internal/graphdb"
)

func smallSocial(t *testing.T) (*Engine, *Graph) {
	t.Helper()
	vx := New()
	ds := MakeUndirected(ErdosRenyi("social", 40, 120, 77))
	g, err := vx.LoadDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	return vx, g
}

func TestQuickstartFlow(t *testing.T) {
	vx, g := smallSocial(t)
	nv, _ := g.NumVertices()
	if nv != 40 {
		t.Fatalf("vertices = %d", nv)
	}
	ranks, stats, err := g.PageRank(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 40 || stats.Supersteps == 0 {
		t.Fatal("pagerank did not run")
	}
	rows, n, err := vx.SQL("SELECT COUNT(*) FROM social_edge WHERE weight > 5.0")
	if err != nil || n != 1 {
		t.Fatalf("sql: %v", err)
	}
	if rows.Value(0, 0).I <= 0 {
		t.Error("metadata weights missing")
	}
}

// Figure 2 agreement settings: PageRank depth, and the largest input the
// graph database runs on (Neo4j completed only the smallest graph in the
// paper).
const (
	agreePRIters          = 8
	agreeGraphDBEdgeLimit = 20000
)

// TestFourSystemAgreement is the reproduction's keystone: all four
// Figure 2 systems compute the same PageRank and SSSP answers on the
// same graph, and the two BSP systems (Giraph and vertex-centric
// Vertexica) take the same number of supersteps.
func TestFourSystemAgreement(t *testing.T) {
	checkFourSystems(t, ErdosRenyi("agree", 60, 240, 123), agreePRIters, agreeGraphDBEdgeLimit)
}

// TestFig2ShapeQuick runs the same four-system check on the three
// paper-shaped Figure 2 inputs, scaled down; the graph database runs
// only on inputs of at most agreeGraphDBEdgeLimit edges. Wall-clock
// orderings need repeated runs; they are vxmark's graph_vertex and
// graph_sql workloads.
func TestFig2ShapeQuick(t *testing.T) {
	for _, ds := range []*Dataset{TwitterScale(0.004), GPlusScale(0.002), LiveJournalScale(0.0004)} {
		t.Run(ds.Name, func(t *testing.T) { checkFourSystems(t, ds, agreePRIters, agreeGraphDBEdgeLimit) })
	}
}

func checkFourSystems(t *testing.T, ds *Dataset, prIters, graphDBEdgeLimit int) {
	ctx := context.Background()
	vx := New()
	g, err := vx.LoadDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	ge := giraph.New(giraph.Config{SuperstepOverhead: -1})
	for v := int64(0); v < ds.Nodes; v++ {
		ge.AddVertex(v)
	}
	for _, e := range ds.Edges {
		ge.AddEdge(e.Src, e.Dst, e.Weight)
	}
	var store *graphdb.Store
	if len(ds.Edges) <= graphDBEdgeLimit {
		store = graphdb.NewWithConfig(graphdb.Config{TxOverhead: -1})
		rows := make([][3]float64, len(ds.Edges))
		for i, e := range ds.Edges {
			rows[i] = [3]float64{float64(e.Src), float64(e.Dst), e.Weight}
		}
		if err := store.Load(rows); err != nil {
			t.Fatal(err)
		}
	}

	// PageRank agreement.
	prVertex, vStats, err := g.PageRank(ctx, prIters)
	if err != nil {
		t.Fatal(err)
	}
	prSQL, err := g.PageRankSQL(ctx, prIters)
	if err != nil {
		t.Fatal(err)
	}
	prGiraph, gStats, err := giraph.PageRank(ge, prIters)
	if err != nil {
		t.Fatal(err)
	}
	if gStats.Supersteps != vStats.Supersteps {
		t.Errorf("pagerank supersteps: giraph=%d vertex=%d", gStats.Supersteps, vStats.Supersteps)
	}
	others := map[string]map[int64]float64{"sql": prSQL, "giraph": prGiraph}
	if store != nil {
		if others["graphdb"], err = graphdb.PageRank(store, prIters, 0.85); err != nil {
			t.Fatal(err)
		}
	}
	for sys, got := range others {
		if len(got) != len(prVertex) {
			t.Errorf("pagerank: %s ranked %d vertices, vertex-centric %d", sys, len(got), len(prVertex))
		}
	}
	for id, want := range prVertex {
		for sys, got := range others {
			if math.Abs(got[id]-want) > 1e-9 {
				t.Errorf("pagerank(%d) %s=%.12f vertex=%.12f", id, sys, got[id], want)
			}
		}
	}

	// SSSP agreement.
	src := ds.MaxOutDegreeNode()
	dVertex, vStats, err := g.ShortestPaths(ctx, src, false)
	if err != nil {
		t.Fatal(err)
	}
	dSQL, err := g.ShortestPathsSQL(ctx, src, false)
	if err != nil {
		t.Fatal(err)
	}
	dGiraph, gStats, err := giraph.SSSP(ge, src, false)
	if err != nil {
		t.Fatal(err)
	}
	if gStats.Supersteps != vStats.Supersteps {
		t.Errorf("sssp supersteps: giraph=%d vertex=%d", gStats.Supersteps, vStats.Supersteps)
	}
	var dGDB map[int64]float64
	if store != nil {
		if dGDB, err = graphdb.ShortestPaths(store, src, false); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range dVertex {
		if math.IsInf(want, 1) {
			if _, ok := dSQL[id]; ok {
				t.Errorf("sssp(%d): sql should omit unreachable", id)
			}
			continue
		}
		bad := math.Abs(dSQL[id]-want) > 1e-9 || math.Abs(dGiraph[id]-want) > 1e-9
		if dGDB != nil && math.Abs(dGDB[id]-want) > 1e-9 {
			bad = true
		}
		if bad {
			t.Errorf("sssp(%d): vertex=%v sql=%v giraph=%v graphdb=%v",
				id, want, dSQL[id], dGiraph[id], dGDB[id])
		}
	}
}

func TestHybridQueries(t *testing.T) {
	_, g := smallSocial(t)
	ctx := context.Background()
	bridges, err := g.ImportantBridges(ctx, 1, 0.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bridges) == 0 {
		t.Error("random graph should have some bridges at threshold 0")
	}
	src, dists, err := g.ShortestPathsFromMostClustered(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if dists[src] != 0 {
		t.Errorf("source distance = %v", dists[src])
	}
	marks, err := g.NearOrImportant(ctx, src, 1, 0.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if marks[src] != "near+important" {
		t.Errorf("source should be near+important, got %q", marks[src])
	}
}

func TestTemporalFacade(t *testing.T) {
	vx := New()
	g, err := vx.CreateGraph("tg")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][4]int64{{1, 2, 0, 100}, {2, 1, 0, 100}, {2, 3, 0, 200}, {3, 2, 0, 200}} {
		if err := g.AddVertexIfMissing(row[0]); err != nil {
			t.Fatal(err)
		}
		if err := g.AddVertexIfMissing(row[1]); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(row[0], row[1], 1, "friend", row[3]); err != nil {
			t.Fatal(err)
		}
	}
	series, err := g.ShortestPathTimeSeries(context.Background(), []int64{150, 250}, 1)
	if err != nil {
		t.Fatal(err)
	}
	closer := CloserPairs(series.Scores[0], series.Scores[1], 1)
	found := false
	for _, d := range closer {
		if d.ID == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("vertex 3 should have come closer: %v", closer)
	}

	mon := g.NewPageRankMonitor(3)
	if _, err := mon.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	deltas, err := mon.ApplyAndRerun(context.Background(),
		"INSERT INTO tg_vertex VALUES (9, '', FALSE)",
		"INSERT INTO tg_edge VALUES (3, 9, 1.0, 'friend', 300), (9, 3, 1.0, 'friend', 300)")
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Error("mutation should change ranks")
	}
}

func TestSnapshotFacade(t *testing.T) {
	vx, g := smallSocial(t)
	snap, err := g.Snapshot("asof", 1240768000)
	if err != nil {
		t.Fatal(err)
	}
	ne, _ := snap.NumEdges()
	all, _ := g.NumEdges()
	if ne >= all {
		t.Errorf("snapshot should filter some edges: %d vs %d", ne, all)
	}
	if err := vx.DropGraph("asof"); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionsFacade(t *testing.T) {
	vx, g := smallSocial(t)
	before, _ := g.NumEdges()
	if err := vx.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := vx.SQL("DELETE FROM social_edge"); err != nil {
		t.Fatal(err)
	}
	if err := vx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, _ := g.NumEdges()
	if after != before {
		t.Errorf("rollback lost edges: %d vs %d", after, before)
	}
}

func TestCollaborativeFilteringFacade(t *testing.T) {
	vx := New()
	g, err := vx.CreateGraph("cf")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{1, 2, 101, 102} {
		if err := g.AddVertex(id, ""); err != nil {
			t.Fatal(err)
		}
	}
	pairs := [][3]float64{{1, 101, 5}, {1, 102, 1}, {2, 101, 4}}
	for _, p := range pairs {
		u, it, r := int64(p[0]), int64(p[1]), p[2]
		if err := g.AddEdge(u, it, r, "rated", 0); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(it, u, r, "rated", 0); err != nil {
			t.Fatal(err)
		}
	}
	vecs, _, err := g.CollaborativeFiltering(context.Background(), 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := PredictRating(vecs, 1, 101)
	lo, _ := PredictRating(vecs, 1, 102)
	if hi <= lo {
		t.Errorf("CF preference order lost: %.3f <= %.3f", hi, lo)
	}
}

func TestMetadataLoad(t *testing.T) {
	vx := New()
	ds := ErdosRenyi("meta", 25, 50, 5)
	if _, err := vx.LoadDatasetWithMetadata(ds, 42); err != nil {
		t.Fatal(err)
	}
	rows, _, err := vx.SQL("SELECT COUNT(*) FROM meta_vertex_meta WHERE z0 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Value(0, 0).I != 25 {
		t.Errorf("metadata rows = %v", rows.Value(0, 0))
	}
}

func TestUDFFacade(t *testing.T) {
	vx, _ := smallSocial(t)
	err := vx.RegisterUDF(&ScalarFunc{
		Name: "half", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []Type) (Type, error) { return TypeFloat64, nil },
		Eval: func(a []Value) (Value, error) {
			if a[0].Null {
				return a[0], nil
			}
			return Float64Value(a[0].AsFloat() / 2), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := vx.SQL("SELECT HALF(8.0)")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Value(0, 0).F != 4 {
		t.Errorf("udf = %v", rows.Value(0, 0))
	}
}

// TestGraphRunGatedAgainstTxn: a graph-algorithm run is a
// multi-statement writer, so it must serialize with transactions via
// the cross-session write gate — and refuse to run inside the default
// session's own transaction (self-deadlock otherwise).
func TestGraphRunGatedAgainstTxn(t *testing.T) {
	vx, g := smallSocial(t)
	ctx := context.Background()

	if err := vx.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.PageRank(ctx, 2); err == nil {
		t.Fatal("graph run allowed inside the default session's transaction")
	}
	if err := vx.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Another session's open transaction blocks the run until COMMIT.
	s := vx.DB().NewSession()
	if _, _, err := s.Run(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, _, err := g.PageRank(cctx, 2); err == nil {
		t.Fatal("graph run slipped past another session's open transaction")
	}
	if _, _, err := s.Run(ctx, "COMMIT"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.PageRank(ctx, 2); err != nil {
		t.Fatalf("graph run failed after the transaction committed: %v", err)
	}
	// SQL-flavored runs take the same gate (their scratch-table DDL
	// must not deadlock against it).
	if _, err := g.PageRankSQL(ctx, 2); err != nil {
		t.Fatalf("SQL graph run under the gate: %v", err)
	}
}

// TestLoadDatasetVertexOrder: a loaded graph's vertex table comes out
// in one order on every load — ids 0..Nodes-1 ascending, then edge
// endpoints outside that range in edge order — so a SELECT without
// ORDER BY reads the same rows in the same order each time.
func TestLoadDatasetVertexOrder(t *testing.T) {
	ds := ErdosRenyi("order", 200, 600, 9)
	ds.Edges = append(ds.Edges, dataset.Edge{Src: 1, Dst: 250}, dataset.Edge{Src: 230, Dst: 2}, dataset.Edge{Src: 250, Dst: 230})
	want := make([]int64, 0, 202)
	for v := int64(0); v < 200; v++ {
		want = append(want, v)
	}
	want = append(want, 250, 230)
	for load := 0; load < 2; load++ {
		vx := New()
		if _, err := vx.LoadDataset(ds); err != nil {
			t.Fatal(err)
		}
		rows, n, err := vx.SQL("SELECT id FROM order_vertex")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int64, n)
		for i := range got {
			got[i] = rows.Value(i, 0).I
		}
		if !slices.Equal(got, want) {
			t.Fatalf("load %d: vertex ids %v, want %v", load, got, want)
		}
	}
}
