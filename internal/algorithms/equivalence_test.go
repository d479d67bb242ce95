package algorithms

import (
	"context"
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// loadDataset materializes a generated dataset into a fresh engine.
func loadDataset(t *testing.T, ds *dataset.Graph) *core.Graph {
	t.Helper()
	db := engine.New()
	g, err := core.CreateGraph(db, "eq")
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]core.Edge, len(ds.Edges))
	for i, e := range ds.Edges {
		edges[i] = core.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Type: e.Type, Created: e.Created}
	}
	if err := g.BulkLoad(nil, edges); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCachedInputEquivalence asserts the input layout is invisible to
// results: for each algorithm, runs over one partition and over eight
// and thirteen (the run's edge arrays, the vertex+message rows and the
// skipped partitions all split differently) produce byte-identical
// vertex values and superstep counts.
func TestCachedInputEquivalence(t *testing.T) {
	ds := dataset.PreferentialAttachment("eq", 300, 3, 11)
	algos := []struct {
		name string
		run  func(g *core.Graph, opts core.Options) (*core.RunStats, error)
	}{
		{"pagerank", func(g *core.Graph, opts core.Options) (*core.RunStats, error) {
			_, stats, err := RunPageRank(context.Background(), g, 8, opts)
			return stats, err
		}},
		{"sssp", func(g *core.Graph, opts core.Options) (*core.RunStats, error) {
			_, stats, err := RunSSSP(context.Background(), g, 0, true, opts)
			return stats, err
		}},
		{"connectedcomponents", func(g *core.Graph, opts core.Options) (*core.RunStats, error) {
			_, stats, err := RunConnectedComponents(context.Background(), g, opts)
			return stats, err
		}},
	}
	layouts := []core.Options{{Workers: 1, Partitions: 1}, {Workers: 2, Partitions: 8}, {Workers: 2, Partitions: 13}}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			vals := make([]map[int64]string, len(layouts))
			steps := make([]int, len(layouts))
			for i, opts := range layouts {
				g := loadDataset(t, ds)
				stats, err := a.run(g, opts)
				if err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				if vals[i], err = g.VertexValues(); err != nil {
					t.Fatal(err)
				}
				steps[i] = stats.Supersteps
			}
			for i := 1; i < len(layouts); i++ {
				if steps[i] != steps[0] {
					t.Errorf("%+v: %d supersteps, one partition took %d", layouts[i], steps[i], steps[0])
				}
				if !maps.Equal(vals[i], vals[0]) {
					t.Errorf("%+v: vertex values differ from the one-partition run", layouts[i])
				}
			}
		})
	}
}
