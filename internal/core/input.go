package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Input assembly, the paper's Table Unions and Vertex Batching (§2.3):
// each worker gets its vertices' state, messages and out-edges in one
// sorted pass, m+e+1 rows for a vertex with m messages and e out-edges
// where a vertex ⟕ message ⟕ edge join would produce m×e. The edges
// never change during a run, so they are read once per run into one
// []Edge per hash partition, sorted on (src, dst). Per superstep only
// the vertex+message union is read, hash partitioned on the vertex id
// with the same hash, and sorted on (id, kind, i1); a worker walks it
// beside its partition's edge array with two cursors.

// Tuple kinds of the vertex+message union.
const (
	kindVertex  int64 = 0
	kindMessage int64 = 1
)

// workUnit is one vertex's reassembled state for a superstep.
type workUnit struct {
	id     int64
	value  string
	halted bool
	msgs   []Message
	edges  []Edge // a capped window of the run's edge array
}

// vertexMessageInputSQL renders the two mutable tables in the union's
// common schema (id, kind, i1, s1): i1 is a vertex's halted flag or a
// message's sender, s1 the value.
func vertexMessageInputSQL(g *Graph) string {
	return fmt.Sprintf(`SELECT id AS id, %d AS kind, CASE WHEN halted THEN 1 ELSE 0 END AS i1, value AS s1 FROM %s
UNION ALL SELECT dst, %d, COALESCE(src, -1), value FROM %s`,
		kindVertex, g.VertexTable(), kindMessage, g.MessageTable())
}

// vmRow is one row of the vertex+message union.
type vmRow struct {
	id, kind, i1 int64
	s1           string
}

// partInput is one partition's input: its edge array, and its share of
// the superstep's vertex+message rows with their order on (id, kind,
// i1). The row buffers are reused every superstep.
type partInput struct {
	edges []Edge
	rows  []vmRow
	order []int32
	verts int  // vertex rows
	msgs  int  // message rows
	live  bool // a non-halted vertex or a message: the partition computes
}

// runInput is a run's input state. Coordinator.Run owns it, so the edge
// arrays are dropped when the run returns.
type runInput struct {
	g           *Graph
	workers     int
	parts       []partInput
	built       bool
	edgeVersion uint64 // edge-table version the edge arrays were built from
}

func newRunInput(g *Graph, partitions, workers int) *runInput {
	return &runInput{g: g, workers: workers, parts: make([]partInput, partitions)}
}

// refreshEdges (re)builds the edge arrays unless they were built from
// the edge table's current version, and reports whether they were
// reused. Edges are expected to stay put during a run; if the table
// does change (a concurrent load, a program reaching back into the
// graph), its version moves and the arrays are rebuilt. The version is
// read before the scan, so a concurrent mutation at worst forces a
// needless rebuild, never a stale hit.
func (in *runInput) refreshEdges(ctx context.Context) (hit bool, err error) {
	version, err := in.g.EdgeVersion()
	if err != nil {
		return false, err
	}
	if in.built && version == in.edgeVersion {
		return true, nil
	}
	// Each row is referenced by (batch, row) and sorted on (src, dst,
	// batch, row), then copied once into its partition's array.
	type edgeRef struct {
		src, dst   int64
		batch, row int32
	}
	var batches []*storage.Batch
	refs := make([][]edgeRef, len(in.parts))
	err = streamInput(ctx, in.g, "edge", "SELECT src, dst, weight, etype, created FROM "+in.g.EdgeTable(), func(b *storage.Batch) {
		src, dst := int64s(b, 0), int64s(b, 1)
		for r, s := range src {
			p := storage.HashInt64(s) % uint64(len(refs))
			refs[p] = append(refs[p], edgeRef{s, dst[r], int32(len(batches)), int32(r)})
		}
		batches = append(batches, b)
	})
	if err != nil {
		return false, err
	}
	sched.ForEach(in.g.DB.WorkerBudget(), len(refs), in.workers, func(p int) {
		slices.SortFunc(refs[p], func(a, b edgeRef) int {
			return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst),
				cmp.Compare(a.batch, b.batch), cmp.Compare(a.row, b.row))
		})
		edges := make([]Edge, len(refs[p]))
		for i, r := range refs[p] {
			b := batches[r.batch]
			edges[i] = Edge{Src: r.src, Dst: r.dst, Weight: b.Cols[2].(*storage.Float64Column).Float64s()[r.row],
				Type: b.Cols[3].(*storage.StringColumn).Strings()[r.row], Created: int64s(b, 4)[r.row]}
		}
		in.parts[p].edges = edges
	})
	in.built, in.edgeVersion = true, version
	return false, nil
}

// superstep reads the vertex+message union batch by batch into the
// partition buffers, orders the rows of every partition with work, and
// returns those partitions. A partition with no message and no
// non-halted vertex is skipped: Pregel semantics guarantee none of its
// vertices would compute (active-partition skipping). ss receives the
// input row count and the skip counts.
func (in *runInput) superstep(ctx context.Context, step int, ss *SuperstepStats) ([]*partInput, error) {
	for p := range in.parts {
		pi := &in.parts[p]
		pi.rows, pi.verts, pi.msgs, pi.live = pi.rows[:0], 0, 0, false
	}
	err := streamInput(ctx, in.g, "vertex+message", vertexMessageInputSQL(in.g), func(b *storage.Batch) {
		ids, kinds, i1 := int64s(b, 0), int64s(b, 1), int64s(b, 2)
		s1 := b.Cols[3].(*storage.StringColumn).Strings()
		for r, id := range ids {
			pi := &in.parts[storage.HashInt64(id)%uint64(len(in.parts))]
			pi.rows = append(pi.rows, vmRow{id, kinds[r], i1[r], s1[r]})
			if kinds[r] == kindVertex {
				pi.verts++
				pi.live = pi.live || i1[r] == 0 || step == 0 // superstep 0 computes every vertex
			} else {
				pi.msgs++
				pi.live = true // a message reactivates its target even if halted
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var active []*partInput
	for p := range in.parts {
		pi := &in.parts[p]
		switch {
		case pi.live:
			active = append(active, pi)
			ss.InputRows += len(pi.rows) + len(pi.edges)
		case len(pi.rows) > 0 || len(pi.edges) > 0:
			ss.SkippedParts++
			ss.SkippedVerts += pi.verts
		}
	}
	sched.ForEach(in.g.DB.WorkerBudget(), len(active), in.workers, func(i int) { active[i].sortRows() })
	return active, nil
}

// sortRows orders the partition's rows on (id, kind, i1), ties in query
// order: each vertex row first, then its messages by sender.
func (pi *partInput) sortRows() {
	pi.order = pi.order[:0]
	for i := range pi.rows {
		pi.order = append(pi.order, int32(i))
	}
	slices.SortFunc(pi.order, func(a, b int32) int {
		ra, rb := &pi.rows[a], &pi.rows[b]
		return cmp.Or(cmp.Compare(ra.id, rb.id), cmp.Compare(ra.kind, rb.kind), cmp.Compare(ra.i1, rb.i1), cmp.Compare(a, b))
	})
}

// walk hands fn one workUnit per vertex of the partition, in id order:
// one cursor gathers the vertex's state and messages from the ordered
// rows, the other takes its out-edges as a window of the edge array.
// Messages to an id without a vertex row (dangling messages) are
// counted, not delivered. The unit is valid only during fn.
func (pi *partInput) walk(fn func(u *workUnit) error) (dangling int, err error) {
	msgs := make([]Message, 0, pi.msgs)
	var u workUnit // one unit reused, so fn's pointer costs no allocation per vertex
	e := 0
	for i := 0; i < len(pi.order); {
		u = workUnit{id: pi.rows[pi.order[i]].id}
		sawVertex, m0 := false, len(msgs)
		for ; i < len(pi.order) && pi.rows[pi.order[i]].id == u.id; i++ {
			r := &pi.rows[pi.order[i]]
			if r.kind == kindVertex {
				sawVertex, u.halted, u.value = true, r.i1 != 0, r.s1
			} else {
				msgs = append(msgs, Message{Src: r.i1, Dst: u.id, Value: r.s1})
			}
		}
		u.msgs = msgs[m0:len(msgs):len(msgs)]
		if !sawVertex {
			dangling += len(u.msgs)
			continue
		}
		for e < len(pi.edges) && pi.edges[e].Src < u.id {
			e++
		}
		e0 := e
		for e < len(pi.edges) && pi.edges[e].Src == u.id {
			e++
		}
		u.edges = pi.edges[e0:e:e]
		if err := fn(&u); err != nil {
			return dangling, err
		}
	}
	return dangling, nil
}

// streamInput runs one input query and hands each result batch to fn as
// the executor produces it; nothing is materialized. Under a graph run
// ctx carries the run's write-gate marker, so the query is detail of the
// run rather than a statement of its own.
func streamInput(ctx context.Context, g *Graph, what, sql string, fn func(*storage.Batch)) error {
	rows, err := g.DB.QueryStream(ctx, sql)
	for err == nil {
		var b *storage.Batch
		if b, err = rows.Next(); b == nil {
			break
		}
		fn(b)
	}
	if err != nil {
		return fmt.Errorf("core: %s input: %w", what, err)
	}
	return nil
}

func int64s(b *storage.Batch, col int) []int64 {
	return b.Cols[col].(*storage.Int64Column).Int64s()
}
