package algorithms

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sqlgraph"
)

var updateBits = flag.Bool("update-bits", false, "rewrite testdata/pinned_bits.txt from this build")

const pinnedBitsFile = "testdata/pinned_bits.txt"

// pinnedGraph is a seeded RMAT graph with edge metadata (weight, type,
// created), plus parallel copies of some edges under distinct weights
// so duplicate (src, dst) pairs and their tie order are part of what
// the file pins.
func pinnedGraph() *dataset.Graph {
	ds := dataset.RMAT("bits", 8, 1500, 0.57, 0.19, 0.19, 39)
	for i, e := range ds.Edges[:40] {
		e.Weight += float64(i%3) + 0.25
		ds.Edges = append(ds.Edges, e)
	}
	return ds
}

// pinnedResults runs every combining program, and the SQL drivers of
// the same algorithms, on a fresh load of the pinned graph and renders
// one "<algo> <vertex> <value bits>" line per vertex, sorted, so two
// builds can be compared bit for bit. The SQL drivers run at engine
// parallelism opts.Workers.
func pinnedResults(t *testing.T, opts core.Options) []string {
	t.Helper()
	ds := pinnedGraph()
	src := ds.MaxOutDegreeNode()
	ctx := context.Background()
	var lines []string
	floats := func(name string, vals map[int64]float64) {
		for id, v := range vals {
			lines = append(lines, fmt.Sprintf("%s %d %016x", name, id, math.Float64bits(v)))
		}
	}
	runs := []struct {
		name string
		run  func(g *core.Graph) (map[int64]float64, error)
	}{
		{"pagerank", func(g *core.Graph) (map[int64]float64, error) {
			v, _, err := RunPageRank(ctx, g, 10, opts)
			return v, err
		}},
		{"sssp_unit", func(g *core.Graph) (map[int64]float64, error) {
			v, _, err := RunSSSP(ctx, g, src, true, opts)
			return v, err
		}},
		{"sssp_weighted", func(g *core.Graph) (map[int64]float64, error) {
			v, _, err := RunSSSP(ctx, g, src, false, opts)
			return v, err
		}},
		{"rwr", func(g *core.Graph) (map[int64]float64, error) {
			v, _, err := RunRandomWalkRestart(ctx, g, src, 10, opts)
			return v, err
		}},
		{"cc", func(g *core.Graph) (map[int64]float64, error) {
			labels, _, err := RunConnectedComponents(ctx, g, opts)
			return labelFloats(labels), err
		}},
		{"pagerank_sql", func(g *core.Graph) (map[int64]float64, error) {
			g.DB.SetParallelism(opts.Workers)
			return sqlgraph.PageRank(ctx, g, 10, 0)
		}},
		{"sssp_sql_unit", func(g *core.Graph) (map[int64]float64, error) {
			g.DB.SetParallelism(opts.Workers)
			return sqlgraph.ShortestPaths(ctx, g, src, true)
		}},
		{"sssp_sql_weighted", func(g *core.Graph) (map[int64]float64, error) {
			g.DB.SetParallelism(opts.Workers)
			return sqlgraph.ShortestPaths(ctx, g, src, false)
		}},
		{"cc_sql", func(g *core.Graph) (map[int64]float64, error) {
			g.DB.SetParallelism(opts.Workers)
			labels, err := sqlgraph.ConnectedComponents(ctx, g)
			return labelFloats(labels), err
		}},
	}
	for _, r := range runs {
		vals, err := r.run(loadDataset(t, ds))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		floats(r.name, vals)
	}
	sort.Strings(lines)
	return lines
}

// labelFloats renders component labels as the float values the pinned
// file stores.
func labelFloats(labels map[int64]int64) map[int64]float64 {
	out := make(map[int64]float64, len(labels))
	for id, l := range labels {
		out[id] = float64(l)
	}
	return out
}

// TestPinnedResultBits asserts that every combining program reproduces
// the result bits pinned in testdata at several worker counts and at a
// partition count that is no multiple of the workers: message routing,
// combining and input assembly may change, the floats they produce may
// not. The file is the byte-identity reference for the vertex runtime. Regenerate the file
// (only when a result change is intended) with -update-bits.
func TestPinnedResultBits(t *testing.T) {
	if *updateBits {
		got := pinnedResults(t, core.Options{Workers: 1})
		if err := os.MkdirAll(filepath.Dir(pinnedBitsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedBitsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinnedBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.Options{
		{Workers: 1}, {Workers: 2}, {Workers: 8}, {Workers: 2, Partitions: 5},
	} {
		got := pinnedResults(t, opts)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d result lines, pinned %d", opts, len(got), len(want))
		}
		diff := 0
		for i := range got {
			if got[i] != want[i] {
				if diff++; diff <= 3 {
					t.Errorf("%+v: got %q, pinned %q", opts, got[i], want[i])
				}
			}
		}
		if diff > 0 {
			t.Fatalf("%+v: %d of %d result lines differ from %s", opts, diff, len(want), pinnedBitsFile)
		}
	}
}
