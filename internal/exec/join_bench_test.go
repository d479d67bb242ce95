package exec

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

// joinBenchTables builds the FK join + aggregate shape of the SQL
// analytic workload: a 400k-row edge table e(src, dst, weight) whose dst
// references a 16k-row node table d(id, grp).
var joinBenchTables = sync.OnceValues(func() (*storage.Table, *storage.Table) {
	const edges, nodes = 400_000, 16_000
	rng := rand.New(rand.NewSource(1))
	src, dst, w := make([]int64, edges), make([]int64, edges), make([]float64, edges)
	for i := range src {
		src[i], dst[i], w[i] = rng.Int63n(nodes), rng.Int63n(nodes), rng.Float64()
	}
	e := storage.NewTable("e", storage.NewSchema(
		storage.NotNullCol("src", storage.TypeInt64), storage.NotNullCol("dst", storage.TypeInt64),
		storage.NotNullCol("weight", storage.TypeFloat64)))
	ids, grp := make([]int64, nodes), make([]int64, nodes)
	for i := range ids {
		ids[i], grp[i] = int64(i), int64(i%64)
	}
	d := storage.NewTable("d", storage.NewSchema(
		storage.NotNullCol("id", storage.TypeInt64), storage.NotNullCol("grp", storage.TypeInt64)))
	for _, in := range []struct {
		t    *storage.Table
		cols []storage.Column
	}{
		{e, []storage.Column{storage.NewInt64Column(src), storage.NewInt64Column(dst), storage.NewFloat64Column(w)}},
		{d, []storage.Column{storage.NewInt64Column(ids), storage.NewInt64Column(grp)}},
	} {
		if err := in.t.AppendBatch(&storage.Batch{Schema: in.t.Schema(), Cols: in.cols}); err != nil {
			panic(err)
		}
	}
	return e, d
})

// BenchmarkHashJoinAggregate times SELECT d.grp, COUNT(*), SUM(e.weight)
// FROM e JOIN d ON d.id = e.dst GROUP BY d.grp at two workers, planned
// the way the planner plans it: the aggregate over the parallelized
// join. edge_probe probes with the 400k edges (the written order);
// node_probe is the reversed form, building on the edges.
func BenchmarkHashJoinAggregate(b *testing.B) {
	const workers = 2
	e, d := joinBenchTables()
	for _, bc := range []struct {
		name string
		// left, right and their key columns; grp and weight are the
		// output positions of d.grp and e.weight.
		left, right *storage.Table
		lkey, rkey  int
		grp, weight int
	}{
		{"edge_probe", e, d, 1, 0, 4, 2},
		{"node_probe", d, e, 0, 1, 1, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := &HashJoin{
					Left: NewTableScan(bc.left), Right: NewTableScan(bc.right),
					LeftKeys: []int{bc.lkey}, RightKeys: []int{bc.rkey},
					Type: InnerJoin, Workers: workers,
				}
				out := j.Schema()
				ref := func(i int) *expr.ColumnRef {
					return &expr.ColumnRef{Name: out.Cols[i].Name, Index: i, Typ: out.Cols[i].Type}
				}
				agg := &HashAggregate{
					Input:   Parallelize(j, workers, nil),
					GroupBy: []expr.Expr{ref(bc.grp)},
					Aggs:    []*expr.Aggregate{{Kind: expr.AggCountStar}, {Kind: expr.AggSum, Input: ref(bc.weight)}},
					Names:   []string{"grp", "n", "w"}, Workers: workers,
				}
				res, err := Drain(agg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 64 {
					b.Fatalf("%d groups, want 64", res.Len())
				}
			}
		})
	}
}
