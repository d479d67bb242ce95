package vertexica

// Go benchmarks for the paper's §3.2 and §3.3 analyses, which no vxmark
// workload times yet:
//
//	BenchmarkHop1_*    — §3.2 1-hop SQL algorithms.
//	BenchmarkTemporal* — §3.3 time-series analysis.
//
// The Figure 2 comparison and the §2.3 runtime are measured by vxmark
// (benchmark/, run with bash benchmark/run.sh).

import (
	"context"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sqlgraph"
	"repro/internal/temporal"
)

func loadVertexicaBench(b *testing.B, ds *dataset.Graph) *core.Graph {
	b.Helper()
	db := engine.New()
	g, err := core.CreateGraph(db, "bench")
	if err != nil {
		b.Fatal(err)
	}
	edges := make([]core.Edge, len(ds.Edges))
	for i, e := range ds.Edges {
		edges[i] = core.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Type: e.Type, Created: e.Created}
	}
	vals := make(map[int64]string, ds.Nodes)
	for v := int64(0); v < ds.Nodes; v++ {
		vals[v] = ""
	}
	if err := g.BulkLoad(vals, edges); err != nil {
		b.Fatal(err)
	}
	return g
}

// --- §3.2 1-hop SQL algorithms ---

func loadUndirectedBench(b *testing.B) *core.Graph {
	b.Helper()
	ds := dataset.MakeUndirected(dataset.ErdosRenyi("hop1", 400, 2400, 9))
	return loadVertexicaBench(b, ds)
}

func BenchmarkHop1_TriangleCounting(b *testing.B) {
	g := loadUndirectedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.TriangleCount(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHop1_StrongOverlap(b *testing.B) {
	g := loadUndirectedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.StrongOverlap(context.Background(), g, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHop1_WeakTies(b *testing.B) {
	g := loadUndirectedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.WeakTies(context.Background(), g, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHop1_ClusteringCoefficients(b *testing.B) {
	g := loadUndirectedBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgraph.ClusteringCoefficients(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.3 temporal analysis ---

func BenchmarkTemporalPageRankTimeSeries(b *testing.B) {
	g := loadVertexicaBench(b, dataset.TwitterScale(0.01))
	times := []int64{1262304000, 1293840000, 1325376000} // three yearly snapshots
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := temporal.TimeSeries(context.Background(), g, times,
			func(ctx context.Context, cg *core.Graph) (map[int64]float64, error) {
				r, _, err := algorithms.RunPageRank(ctx, cg, 3, core.Options{})
				return r, err
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}
