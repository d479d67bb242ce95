package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Input assembly for one superstep, the paper's Table-Unions
// optimization (§2.3): the vertex, edge and message tables are renamed
// to a common schema, concatenated with UNION ALL, hash partitioned on
// the vertex id, and each partition is sorted on (id, kind, i1), which
// hands each vertex its out-edges by dst (ties in edge-table order: the
// sort is stable) and its messages by src. Workers parse the tuple
// kinds apart. A vertex with m messages and e out-edges contributes
// m+e+1 rows, where a vertex ⟕ message ⟕ edge join would produce m×e.

// Tuple kinds inside the union's common schema.
const (
	kindVertex  int64 = 0
	kindEdge    int64 = 1
	kindMessage int64 = 2
)

// workUnit is one vertex's reassembled state for a superstep.
type workUnit struct {
	id     int64
	value  string
	halted bool
	msgs   []Message
	edges  []Edge
}

// unionSortKeys is the (id, kind, i1) ordering every union partition —
// cached or not — is sorted on.
var unionSortKeys = []storage.SortKey{{Col: 0}, {Col: 1}, {Col: 2}}

// unionInputSQL renders the common-schema UNION ALL over the three
// graph tables — the coordinator literally drives standard SQL, as in
// the paper.
func unionInputSQL(g *Graph) string {
	return fmt.Sprintf(`SELECT id AS id, 0 AS kind, CASE WHEN halted THEN 1 ELSE 0 END AS i1, 0.0 AS f1, value AS s1, 0 AS i2 FROM %s
UNION ALL SELECT src, 1, dst, weight, etype, created FROM %s
UNION ALL SELECT dst, 2, COALESCE(src, -1), 0.0, value, 0 FROM %s`,
		g.VertexTable(), g.EdgeTable(), g.MessageTable())
}

// edgeInputSQL renders just the edge branch of the union in the common
// schema. The edge table is immutable for the duration of a run, so
// the coordinator assembles this side once and caches it.
func edgeInputSQL(g *Graph) string {
	return fmt.Sprintf(`SELECT src AS id, 1 AS kind, dst AS i1, weight AS f1, etype AS s1, created AS i2 FROM %s`,
		g.EdgeTable())
}

// vertexMessageInputSQL renders the two mutable branches of the union
// (vertex state and in-flight messages) in the common schema — the only
// rows that change between supersteps.
func vertexMessageInputSQL(g *Graph) string {
	return fmt.Sprintf(`SELECT id AS id, 0 AS kind, CASE WHEN halted THEN 1 ELSE 0 END AS i1, 0.0 AS f1, value AS s1, 0 AS i2 FROM %s
UNION ALL SELECT dst, 2, COALESCE(src, -1), 0.0, value, 0 FROM %s`,
		g.VertexTable(), g.MessageTable())
}

// inputCache holds the immutable edge side of the union input, hash-
// partitioned on src and sorted on (id, kind, dst), built once per run
// in Coordinator.Run. parts is dense — one slot per partition, nil for
// partitions with no edges — so a partition's cached edge run lines up
// with the same partition of the per-superstep vertex+message run.
type inputCache struct {
	parts       []*storage.Batch
	partitions  int
	edgeVersion uint64 // edge-table version the cache was built against
}

// buildEdgeCache assembles the edge-side partitions. The version is
// read before the scan, so a concurrent mutation at worst makes the
// cache look stale and triggers a rebuild — never a silently stale hit.
func buildEdgeCache(ctx context.Context, g *Graph, partitions, workers int) (*inputCache, error) {
	version, err := g.EdgeVersion()
	if err != nil {
		return nil, err
	}
	data, err := queryInput(ctx, g, "edge", edgeInputSQL(g))
	if err != nil {
		return nil, err
	}
	return &inputCache{
		parts:       partitionAndSort(data, partitions, workers, g.DB.WorkerBudget()),
		partitions:  partitions,
		edgeVersion: version,
	}, nil
}

// cachedInputResult is what buildCachedUnionInput hands the coordinator
// for one superstep.
type cachedInputResult struct {
	parts        []*storage.Batch // dispatched partitions, merged and sorted
	skippedParts int              // quiescent partitions not dispatched
	skippedVerts int              // halted vertices inside skipped partitions
}

// buildCachedUnionInput assembles one superstep's input on top of the
// edge cache: only the vertex and message rows are scanned, partitioned
// and sorted, then each small sorted run is merged into its partition's
// cached edge run. Partitions with no incoming messages and no
// non-halted vertices are skipped entirely — Pregel semantics guarantee
// none of their vertices would compute (active-partition skipping).
func buildCachedUnionInput(ctx context.Context, g *Graph, cache *inputCache, step, workers int) (*cachedInputResult, error) {
	data, err := queryInput(ctx, g, "vertex+message", vertexMessageInputSQL(g))
	if err != nil {
		return nil, err
	}
	ids := data.Cols[0].(*storage.Int64Column).Int64s()
	kinds := data.Cols[1].(*storage.Int64Column).Int64s()
	i1 := data.Cols[2].(*storage.Int64Column).Int64s() // halted flag on vertex rows
	pidx := storage.PartitionInt64(ids, cache.partitions)

	res := &cachedInputResult{}
	var active []int // partition numbers to dispatch
	for p, idx := range pidx {
		verts, live := 0, false
		for _, r := range idx {
			switch kinds[r] {
			case kindVertex:
				verts++
				if i1[r] == 0 {
					live = true
				}
			case kindMessage:
				// A message reactivates its target even if halted.
				live = true
			}
		}
		if step == 0 && verts > 0 {
			live = true // superstep 0 computes every vertex
		}
		if live {
			active = append(active, p)
			continue
		}
		if len(idx) > 0 || cache.parts[p] != nil {
			res.skippedParts++
			res.skippedVerts += verts
		}
	}

	res.parts = make([]*storage.Batch, len(active))
	sched.ForEach(g.DB.WorkerBudget(), len(active), workers, func(i int) {
		p := active[i]
		vm := storage.SortBatch(data.Gather(pidx[p]), unionSortKeys)
		res.parts[i] = storage.MergeSortedBatches(vm, cache.parts[p], unionSortKeys)
	})
	return res, nil
}

// buildUnionInput assembles, partitions and sorts the superstep input
// via the union path. It returns one sorted batch per non-empty
// partition.
func buildUnionInput(ctx context.Context, g *Graph, partitions, workers int) ([]*storage.Batch, error) {
	data, err := queryInput(ctx, g, "union", unionInputSQL(g))
	if err != nil {
		return nil, err
	}
	parts := partitionAndSort(data, partitions, workers, g.DB.WorkerBudget())
	return slices.DeleteFunc(parts, func(b *storage.Batch) bool { return b == nil }), nil
}

// queryInput runs one input-assembly query and materializes its rows.
// Under a graph run ctx carries the run's write-gate marker, so the
// query is detail of the run rather than a statement of its own.
func queryInput(ctx context.Context, g *Graph, what, sql string) (*storage.Batch, error) {
	rows, err := g.DB.QueryContext(ctx, sql)
	if err == nil {
		var data *storage.Batch
		if data, err = rows.Materialize(); err == nil {
			return data, nil
		}
	}
	return nil, fmt.Errorf("core: %s input: %w", what, err)
}

// partitionAndSort hash-partitions rows in the union's schema on their
// id column and sorts each partition on (id, kind, i1) — the paper's
// Vertex Batching optimization — returning one batch per partition, nil
// where a partition is empty. Partition-local gather+sort runs on the
// worker pool, since in Vertexica that work happens inside each worker
// UDF's input feed.
func partitionAndSort(data *storage.Batch, partitions, workers int, budget *sched.Budget) []*storage.Batch {
	ids := data.Cols[0].(*storage.Int64Column).Int64s()
	pidx := storage.PartitionInt64(ids, partitions)
	out := make([]*storage.Batch, partitions)
	sched.ForEach(budget, partitions, workers, func(p int) {
		if len(pidx[p]) > 0 {
			out[p] = storage.SortBatch(data.Gather(pidx[p]), unionSortKeys)
		}
	})
	return out
}

// parseUnionPartition walks a sorted union partition and reassembles
// one workUnit per vertex that appears in it. Tuples whose vertex row
// is missing (dangling messages) are counted, not processed.
func parseUnionPartition(b *storage.Batch) (units []workUnit, dangling int) {
	n := b.Len()
	ids := b.Cols[0].(*storage.Int64Column).Int64s()
	kinds := b.Cols[1].(*storage.Int64Column).Int64s()
	i1 := b.Cols[2].(*storage.Int64Column).Int64s()
	f1 := b.Cols[3].(*storage.Float64Column).Float64s()
	s1 := b.Cols[4].(*storage.StringColumn).Strings()
	i2 := b.Cols[5].(*storage.Int64Column).Int64s()

	// Every unit's edges and messages are capped windows of one array
	// each, sized by a first pass over the kinds.
	ne, nm := 0, 0
	for _, k := range kinds {
		switch k {
		case kindEdge:
			ne++
		case kindMessage:
			nm++
		}
	}
	edges, msgs := make([]Edge, 0, ne), make([]Message, 0, nm)
	for i := 0; i < n; {
		j := i
		id := ids[i]
		for j < n && ids[j] == id {
			j++
		}
		u := workUnit{id: id}
		sawVertex := false
		e0, m0 := len(edges), len(msgs)
		for k := i; k < j; k++ {
			switch kinds[k] {
			case kindVertex:
				sawVertex = true
				u.halted = i1[k] != 0
				u.value = s1[k]
			case kindEdge:
				edges = append(edges, Edge{
					Src: id, Dst: i1[k], Weight: f1[k], Type: s1[k], Created: i2[k],
				})
			case kindMessage:
				msgs = append(msgs, Message{Src: i1[k], Dst: id, Value: s1[k]})
			}
		}
		u.edges = edges[e0:len(edges):len(edges)]
		u.msgs = msgs[m0:len(msgs):len(msgs)]
		if sawVertex {
			units = append(units, u)
		} else {
			dangling += len(u.msgs)
		}
		i = j
	}
	return units, dangling
}
