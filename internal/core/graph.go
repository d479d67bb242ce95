package core

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/engine"
	"repro/internal/storage"
)

// Graph binds a named graph to its three relational tables in the
// engine — exactly the physical design from §2.2 of the paper:
//
//	<name>_vertex(id, value, halted)
//	<name>_edge(src, dst, weight, etype, created)
//	<name>_message(src, dst, value)
//
// The edge table carries the three metadata attributes the paper adds
// to every edge (weight, creation timestamp, type).
type Graph struct {
	DB   *engine.DB
	Name string
}

// Table names for the graph.
func (g *Graph) VertexTable() string  { return g.Name + "_vertex" }
func (g *Graph) EdgeTable() string    { return g.Name + "_edge" }
func (g *Graph) MessageTable() string { return g.Name + "_message" }

// VertexSchema is the schema of every graph's vertex table.
func VertexSchema() storage.Schema {
	return storage.NewSchema(
		storage.NotNullCol("id", storage.TypeInt64),
		storage.Col("value", storage.TypeString),
		storage.NotNullCol("halted", storage.TypeBool),
	)
}

// EdgeSchema is the schema of every graph's edge table.
func EdgeSchema() storage.Schema {
	return storage.NewSchema(
		storage.NotNullCol("src", storage.TypeInt64),
		storage.NotNullCol("dst", storage.TypeInt64),
		storage.Col("weight", storage.TypeFloat64),
		storage.Col("etype", storage.TypeString),
		storage.Col("created", storage.TypeInt64),
	)
}

// MessageSchema is the schema of every graph's message table.
func MessageSchema() storage.Schema {
	return storage.NewSchema(
		storage.Col("src", storage.TypeInt64),
		storage.NotNullCol("dst", storage.TypeInt64),
		storage.Col("value", storage.TypeString),
	)
}

// validName reports whether a graph name is a safe SQL identifier:
// the coordinator embeds graph table names in generated SQL, so names
// must be letter-or-underscore followed by letters, digits or
// underscores.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z'):
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// CreateGraph creates the three tables for a new graph, single-shard
// (the historical layout). Use CreateGraphSharded to hash-partition
// the tables for parallel superstep input assembly and writeback.
func CreateGraph(db *engine.DB, name string) (*Graph, error) {
	return CreateGraphSharded(db, name, 1)
}

// CreateGraphSharded creates the three tables for a new graph with
// each table hash-partitioned into the given number of shards, along
// the column the vertex runtime partitions work by: the vertex table
// by id, the edge table by src (out-edges of a vertex land in one
// shard), and the message table by dst (a vertex's inbox lands in one
// shard). All three use the same hash (storage.HashValue), so shard i
// of each table holds exactly the rows of the vertices the coordinator
// assigns to partition i when the partition count matches the shard
// count. shards <= 1 degenerates to the single-shard layout.
func CreateGraphSharded(db *engine.DB, name string, shards int) (*Graph, error) {
	if !validName(name) {
		return nil, fmt.Errorf("core: graph name %q is not a valid SQL identifier (letters, digits, underscores)", name)
	}
	if shards < 1 {
		shards = 1
	}
	g := &Graph{DB: db, Name: name}
	cat := db.Catalog()
	if cat.Has(g.VertexTable()) {
		return nil, fmt.Errorf("core: graph %q already exists", name)
	}
	create := func(tn string, schema storage.Schema, keyName string) error {
		key := -1
		if shards > 1 {
			key = schema.IndexOf(keyName)
		}
		_, err := cat.CreateSharded(tn, schema, key, shards)
		return err
	}
	if err := create(g.VertexTable(), VertexSchema(), "id"); err != nil {
		return nil, err
	}
	if err := create(g.EdgeTable(), EdgeSchema(), "src"); err != nil {
		return nil, err
	}
	if err := create(g.MessageTable(), MessageSchema(), "dst"); err != nil {
		return nil, err
	}
	return g, nil
}

// OpenGraph binds to an existing graph's tables.
func OpenGraph(db *engine.DB, name string) (*Graph, error) {
	g := &Graph{DB: db, Name: name}
	cat := db.Catalog()
	for _, tn := range []string{g.VertexTable(), g.EdgeTable(), g.MessageTable()} {
		if !cat.Has(tn) {
			return nil, fmt.Errorf("core: graph %q: missing table %s", name, tn)
		}
	}
	return g, nil
}

// DropGraph removes the graph's tables.
func DropGraph(db *engine.DB, name string) error {
	g := &Graph{DB: db, Name: name}
	cat := db.Catalog()
	var first error
	for _, tn := range []string{g.VertexTable(), g.EdgeTable(), g.MessageTable()} {
		if err := cat.Drop(tn); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AddVertex inserts one vertex with an initial value.
//
// These helpers read and write the graph tables directly, bypassing
// the SQL statement path, so each takes the engine's statement latch
// (shared for reads, exclusive for writes) — a concurrent SQL
// statement never observes a half-applied mutation. They do NOT take
// the cross-session write gate: that is the caller's job (the facade's
// gated wrappers, the coordinator's gated run), since several of these
// run inside an already-gated scope and the gate is not reentrant.
func (g *Graph) AddVertex(id int64, value string) error {
	t, err := g.DB.Catalog().Get(g.VertexTable())
	if err != nil {
		return err
	}
	g.DB.LockExclusive()
	defer g.DB.UnlockExclusive()
	return t.AppendRow(storage.Int64(id), storage.Str(value), storage.Bool(false))
}

// AddEdge inserts one edge with metadata.
func (g *Graph) AddEdge(src, dst int64, weight float64, etype string, created int64) error {
	t, err := g.DB.Catalog().Get(g.EdgeTable())
	if err != nil {
		return err
	}
	g.DB.LockExclusive()
	defer g.DB.UnlockExclusive()
	return t.AppendRow(storage.Int64(src), storage.Int64(dst),
		storage.Float64(weight), storage.Str(etype), storage.Int64(created))
}

// BulkLoad loads vertices (id → initial value) and edges in one pass:
// the vertices in ascending id order, then every edge endpoint absent
// from values, in edge order, with the empty value.
func (g *Graph) BulkLoad(values map[int64]string, edges []Edge) error {
	ids := slices.Sorted(maps.Keys(values))
	vals := make([]string, len(ids))
	for i, id := range ids {
		vals[i] = values[id]
	}
	ec := MakeEdgeColumns(len(edges))
	for i, e := range edges {
		ec.Src[i], ec.Dst[i], ec.Weight[i], ec.Type[i], ec.Created[i] = e.Src, e.Dst, e.Weight, e.Type, e.Created
	}
	return g.LoadColumns(ids, vals, ec)
}

// EdgeColumns is an edge list laid out like the edge table: one slice
// per column, all of one length.
type EdgeColumns struct {
	Src, Dst []int64
	Weight   []float64
	Type     []string
	Created  []int64
}

// MakeEdgeColumns allocates the columns of n edges.
func MakeEdgeColumns(n int) EdgeColumns {
	return EdgeColumns{
		Src: make([]int64, n), Dst: make([]int64, n), Weight: make([]float64, n),
		Type: make([]string, n), Created: make([]int64, n),
	}
}

// LoadColumns appends vertices and edges column by column. ids are
// distinct vertex ids, created in the order given with values[i] (the
// empty value when values is nil); every edge endpoint not among them
// is created afterwards, in edge order (src before dst), with the empty
// value. No row is built on the way.
func (g *Graph) LoadColumns(ids []int64, values []string, edges EdgeColumns) error {
	if values == nil {
		values = make([]string, len(ids))
	}
	// Membership in ids: a range check when they run lo, lo+1, … (a
	// generated dataset's 0..n-1), else a set.
	lo, hi := int64(1), int64(0)
	var known map[int64]bool
	if n := len(ids); n > 0 && ids[n-1]-ids[0] == int64(n-1) && slices.IsSorted(ids) {
		lo, hi = ids[0], ids[n-1]
	} else {
		known = make(map[int64]bool, n)
		for _, id := range ids {
			known[id] = true
		}
	}
	ids, values = slices.Clip(ids), slices.Clip(values) // the caller's arrays are not ours to grow
	for i := range edges.Src {
		for _, id := range [2]int64{edges.Src[i], edges.Dst[i]} {
			if lo <= id && id <= hi || known[id] {
				continue
			}
			if known == nil {
				known = make(map[int64]bool)
			}
			known[id] = true
			ids, values = append(ids, id), append(values, "")
		}
	}

	g.DB.LockExclusive()
	defer g.DB.UnlockExclusive()
	vt, err := g.DB.Catalog().Get(g.VertexTable())
	if err != nil {
		return err
	}
	if err := vt.AppendBatch(&storage.Batch{Schema: VertexSchema(), Cols: []storage.Column{
		storage.NewInt64Column(ids), storage.NewStringColumn(values), storage.NewBoolColumn(make([]bool, len(ids))),
	}}); err != nil {
		return err
	}
	et, err := g.DB.Catalog().Get(g.EdgeTable())
	if err != nil {
		return err
	}
	return et.AppendBatch(&storage.Batch{Schema: EdgeSchema(), Cols: []storage.Column{
		storage.NewInt64Column(edges.Src), storage.NewInt64Column(edges.Dst), storage.NewFloat64Column(edges.Weight),
		storage.NewStringColumn(edges.Type), storage.NewInt64Column(edges.Created),
	}})
}

// EdgeVersion returns the edge table's mutation counter. A run's edge
// arrays are keyed on it: edges are expected to be immutable during a
// run, but if anything does mutate the edge table mid-run (a concurrent
// load, a program reaching back into the graph) the version moves and
// the arrays are rebuilt rather than serving stale edges.
func (g *Graph) EdgeVersion() (uint64, error) {
	t, err := g.DB.Catalog().Get(g.EdgeTable())
	if err != nil {
		return 0, err
	}
	g.DB.LockShared()
	defer g.DB.UnlockShared()
	return t.Version(), nil
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() (int64, error) {
	t, err := g.DB.Catalog().Get(g.VertexTable())
	if err != nil {
		return 0, err
	}
	g.DB.LockShared()
	defer g.DB.UnlockShared()
	return int64(t.NumRows()), nil
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() (int64, error) {
	t, err := g.DB.Catalog().Get(g.EdgeTable())
	if err != nil {
		return 0, err
	}
	g.DB.LockShared()
	defer g.DB.UnlockShared()
	return int64(t.NumRows()), nil
}

// VertexValues returns every vertex's current value. The iteration
// runs over a pinned MVCC snapshot, holding no engine latch.
func (g *Graph) VertexValues() (map[int64]string, error) {
	snap, err := g.DB.AcquireSnapshot(g.VertexTable())
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	t, err := snap.Table(g.VertexTable())
	if err != nil {
		return nil, err
	}
	data := t.Data()
	ids := data.Cols[0].(*storage.Int64Column).Int64s()
	out := make(map[int64]string, len(ids))
	for i, id := range ids {
		out[id] = data.Cols[1].Value(i).S
	}
	return out, nil
}

// FloatValues decodes every vertex value as float64 (the common case:
// PageRank ranks, SSSP distances). Vertices whose value does not parse
// are skipped.
func (g *Graph) FloatValues() (map[int64]float64, error) {
	vals, err := g.VertexValues()
	if err != nil {
		return nil, err
	}
	out := make(map[int64]float64, len(vals))
	for id, s := range vals {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			out[id] = f
		}
	}
	return out, nil
}

// SetVertexValues overwrites the value of the given vertices (used by
// algorithms to set per-source initial state).
func (g *Graph) SetVertexValues(vals map[int64]string) error {
	t, err := g.DB.Catalog().Get(g.VertexTable())
	if err != nil {
		return err
	}
	g.DB.LockExclusive()
	defer g.DB.UnlockExclusive()
	data := t.Data()
	ids := data.Cols[0].(*storage.Int64Column).Int64s()
	var idx []int
	var newVals []storage.Value
	for i, id := range ids {
		if v, ok := vals[id]; ok {
			idx = append(idx, i)
			newVals = append(newVals, storage.Str(v))
		}
	}
	return t.UpdateInPlace(idx, 1, newVals)
}

// ResetForRun resets halted flags, clears the message table, and sets
// every vertex value to initial (if non-nil returns a value for the id).
func (g *Graph) ResetForRun(initial func(id int64) string) error {
	g.DB.LockExclusive()
	defer g.DB.UnlockExclusive()
	cat := g.DB.Catalog()
	vt, err := cat.Get(g.VertexTable())
	if err != nil {
		return err
	}
	data := vt.Data()
	ids := data.Cols[0].(*storage.Int64Column).Int64s()
	n := len(ids)
	idx := make([]int, n)
	halts := make([]storage.Value, n)
	for i := range idx {
		idx[i] = i
		halts[i] = storage.Bool(false)
	}
	if err := vt.UpdateInPlace(idx, 2, halts); err != nil {
		return err
	}
	if initial != nil {
		vals := make([]storage.Value, n)
		for i, id := range ids {
			vals[i] = storage.Str(initial(id))
		}
		if err := vt.UpdateInPlace(idx, 1, vals); err != nil {
			return err
		}
	}
	mt, err := cat.Get(g.MessageTable())
	if err != nil {
		return err
	}
	mt.Truncate()
	return nil
}
