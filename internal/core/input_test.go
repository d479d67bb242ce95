package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// inputFixture builds a graph with one pending message so the input
// has vertex rows, message rows and edges to reassemble.
func inputFixture(t *testing.T) *Graph {
	t.Helper()
	db := engine.New()
	g, err := CreateGraph(db, "in")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.BulkLoad(map[int64]string{1: "v1", 2: "v2", 3: "v3"}, []Edge{
		{Src: 1, Dst: 2, Weight: 0.5, Type: "friend", Created: 42},
		{Src: 1, Dst: 3, Weight: 1.5, Type: "family", Created: 43},
		{Src: 2, Dst: 3, Weight: 2.5, Type: "friend", Created: 44},
	}); err != nil {
		t.Fatal(err)
	}
	mt, _ := db.Catalog().Get(g.MessageTable())
	if err := mt.AppendRow(storage.Int64(3), storage.Int64(1), storage.Str("hello")); err != nil {
		t.Fatal(err)
	}
	return g
}

// assembled is one superstep's input as the workers would see it.
type assembled struct {
	parts    []*partInput
	ss       SuperstepStats
	units    map[int64]workUnit
	order    []int64 // vertex ids in walk order, partition by partition
	dangling int
}

// assemble builds the run's edge arrays and one superstep's input over
// g, then walks every dispatched partition.
func assemble(t *testing.T, g *Graph, partitions, workers, step int) assembled {
	t.Helper()
	ri := newRunInput(g, partitions, workers)
	if _, err := ri.refreshEdges(context.Background()); err != nil {
		t.Fatal(err)
	}
	return walkAll(t, ri, step)
}

// walkAll assembles one superstep's input from ri and walks every
// dispatched partition.
func walkAll(t *testing.T, ri *runInput, step int) assembled {
	t.Helper()
	a := assembled{units: map[int64]workUnit{}}
	var err error
	if a.parts, err = ri.superstep(context.Background(), step, &a.ss); err != nil {
		t.Fatal(err)
	}
	for _, p := range a.parts {
		d, err := p.walk(func(u *workUnit) error {
			if _, dup := a.units[u.id]; dup {
				t.Fatalf("vertex %d appears in two partitions", u.id)
			}
			a.units[u.id] = *u
			a.order = append(a.order, u.id)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		a.dangling += d
	}
	return a
}

func checkFixtureUnits(t *testing.T, units map[int64]workUnit, path string) {
	t.Helper()
	if len(units) != 3 {
		t.Fatalf("%s: %d units, want 3", path, len(units))
	}
	u1 := units[1]
	if u1.value != "v1" || u1.halted {
		t.Errorf("%s: vertex 1 state = %q halted=%v", path, u1.value, u1.halted)
	}
	if len(u1.edges) != 2 {
		t.Fatalf("%s: vertex 1 edges = %d, want 2", path, len(u1.edges))
	}
	if u1.edges[0].Dst != 2 || u1.edges[0].Weight != 0.5 || u1.edges[0].Type != "friend" || u1.edges[0].Created != 42 {
		t.Errorf("%s: edge metadata lost: %+v", path, u1.edges[0])
	}
	if len(u1.msgs) != 1 || u1.msgs[0].Value != "hello" || u1.msgs[0].Src != 3 {
		t.Errorf("%s: vertex 1 messages = %+v", path, u1.msgs)
	}
	if len(units[2].msgs) != 0 || len(units[2].edges) != 1 {
		t.Errorf("%s: vertex 2 = %+v", path, units[2])
	}
	if len(units[3].edges) != 0 {
		t.Errorf("%s: vertex 3 should have no out-edges", path)
	}
}

// TestUnionInputAssembly reassembles the fixture from a single
// partition: every vertex, edge and message in one sorted run.
func TestUnionInputAssembly(t *testing.T) {
	a := assemble(t, inputFixture(t), 1, 1, 0)
	checkFixtureUnits(t, a.units, "one partition")
	if !slices.IsSorted(a.order) {
		t.Errorf("walk order %v, want ascending ids", a.order)
	}
}

func TestUnionInputRowCount(t *testing.T) {
	// A vertex with m messages and e edges contributes m+e+1 input rows,
	// not the m×e of a vertex ⟕ message ⟕ edge join — the quantitative
	// heart of §2.3's Table Unions.
	db := engine.New()
	g, err := CreateGraph(db, "blow")
	if err != nil {
		t.Fatal(err)
	}
	var edges []Edge
	for i := int64(1); i <= 4; i++ {
		edges = append(edges, Edge{Src: 0, Dst: i})
	}
	if err := g.BulkLoad(nil, edges); err != nil {
		t.Fatal(err)
	}
	mt, _ := db.Catalog().Get(g.MessageTable())
	for i := int64(1); i <= 3; i++ {
		_ = mt.AppendRow(storage.Int64(i), storage.Int64(0), storage.Str("m"))
	}
	a := assemble(t, g, 1, 1, 0)
	// 5 vertices + 4 edges + 3 messages.
	if a.ss.InputRows != 12 {
		t.Errorf("input rows = %d, want 12 (m+e+v)", a.ss.InputRows)
	}
	if u := a.units[0]; len(u.msgs) != 3 || len(u.edges) != 4 {
		t.Errorf("vertex 0 reassembled %d msgs / %d edges, want 3/4", len(u.msgs), len(u.edges))
	}
}

// TestPartitionAndSortParallelMatchesSerial: the edge arrays and the
// per-partition sorts run on the worker pool; the pool size must not
// change a single unit.
func TestPartitionAndSortParallelMatchesSerial(t *testing.T) {
	g := inputFixture(t)
	serial := assemble(t, g, 4, 1, 0)
	parallel := assemble(t, g, 4, 8, 0)
	if !reflect.DeepEqual(serial.units, parallel.units) || !slices.Equal(serial.order, parallel.order) {
		t.Errorf("units differ:\nserial   %+v\nparallel %+v", serial.units, parallel.units)
	}
}

func TestDanglingUnionMessageNotComputed(t *testing.T) {
	g := inputFixture(t)
	mt, _ := g.DB.Catalog().Get(g.MessageTable())
	_ = mt.AppendRow(storage.Int64(1), storage.Int64(999), storage.Str("ghost"))
	a := assemble(t, g, 2, 1, 0)
	if a.dangling != 1 {
		t.Errorf("dangling = %d, want 1", a.dangling)
	}
	if _, ok := a.units[999]; ok {
		t.Error("a message target without a vertex row became a work unit")
	}
}

// TestEdgeWalk drives the two-cursor walk over hand-built partitions:
// rows in (id, kind, i1) order beside an edge array sorted on
// (src, dst).
func TestEdgeWalk(t *testing.T) {
	vertex := func(id int64, value string) vmRow { return vmRow{id: id, kind: kindVertex, s1: value} }
	msg := func(dst, src int64, value string) vmRow {
		return vmRow{id: dst, kind: kindMessage, i1: src, s1: value}
	}
	cases := []struct {
		name     string
		rows     []vmRow
		edges    []Edge
		want     map[int64][2]int // id -> (messages, edges)
		dangling int
	}{
		{
			name: "dangling messages counted",
			rows: []vmRow{vertex(1, "a"), msg(2, 1, "x"), msg(2, 3, "y"), msg(4, 1, "z")},
			edges: []Edge{
				{Src: 1, Dst: 2}, {Src: 2, Dst: 4}, {Src: 4, Dst: 1},
			},
			want:     map[int64][2]int{1: {0, 1}},
			dangling: 3,
		},
		{
			name:  "edges but no messages",
			rows:  []vmRow{vertex(1, "a"), vertex(5, "b")},
			edges: []Edge{{Src: 1, Dst: 5}, {Src: 5, Dst: 1}, {Src: 5, Dst: 7}},
			want:  map[int64][2]int{1: {0, 1}, 5: {0, 2}},
		},
		{
			name:  "message to a vertex with no edges",
			rows:  []vmRow{vertex(1, "a"), msg(1, 9, "m"), vertex(3, "c"), msg(3, 1, "n"), msg(3, 2, "o")},
			edges: []Edge{{Src: 1, Dst: 3}},
			want:  map[int64][2]int{1: {1, 1}, 3: {2, 0}},
		},
		{
			name: "edges of vertices without a vertex row are passed over",
			rows: []vmRow{vertex(4, "d")},
			edges: []Edge{
				{Src: 1, Dst: 4}, {Src: 2, Dst: 4}, {Src: 4, Dst: 2}, {Src: 6, Dst: 4},
			},
			want: map[int64][2]int{4: {0, 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pi := &partInput{rows: tc.rows, edges: tc.edges}
			for _, r := range tc.rows {
				if r.kind == kindMessage {
					pi.msgs++
				}
			}
			pi.sortRows()
			got := map[int64][2]int{}
			dangling, err := pi.walk(func(u *workUnit) error {
				got[u.id] = [2]int{len(u.msgs), len(u.edges)}
				for _, e := range u.edges {
					if e.Src != u.id {
						t.Errorf("vertex %d got edge %+v", u.id, e)
					}
				}
				for _, m := range u.msgs {
					if m.Dst != u.id {
						t.Errorf("vertex %d got message %+v", u.id, m)
					}
				}
				if cap(u.edges) != len(u.edges) || cap(u.msgs) != len(u.msgs) {
					t.Errorf("vertex %d: windows not capped", u.id)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) || dangling != tc.dangling {
				t.Errorf("units %v dangling %d, want %v dangling %d", got, dangling, tc.want, tc.dangling)
			}
		})
	}
}

// TestEdgeWalkParallelEdgesInTableOrder: parallel edges to one
// destination keep edge-table order in the run's edge array, whatever
// order the sort meets them in, and messages reach their vertex by
// sender.
func TestEdgeWalkParallelEdgesInTableOrder(t *testing.T) {
	db := engine.New()
	g, err := CreateGraph(db, "par")
	if err != nil {
		t.Fatal(err)
	}
	var edges []Edge
	for i := 0; i < 40; i++ {
		edges = append(edges, Edge{Src: 0, Dst: int64(3 - i%3), Created: int64(i)})
	}
	if err := g.BulkLoad(nil, edges); err != nil {
		t.Fatal(err)
	}
	mt, _ := db.Catalog().Get(g.MessageTable())
	for _, src := range []int64{3, 1, 2, 1} {
		_ = mt.AppendRow(storage.Int64(src), storage.Int64(0), storage.Str(""))
	}
	u := assemble(t, g, 3, 2, 1).units[0]
	want := slices.Clone(edges)
	slices.SortStableFunc(want, func(a, b Edge) int { return int(a.Dst - b.Dst) })
	if !reflect.DeepEqual(u.edges, want) {
		t.Errorf("out-edges %+v\nwant %+v", u.edges, want)
	}
	var srcs []int64
	for _, m := range u.msgs {
		srcs = append(srcs, m.Src)
	}
	if !slices.Equal(srcs, []int64{1, 1, 2, 3}) {
		t.Errorf("message senders %v, want [1 1 2 3]", srcs)
	}
}

// TestEdgeWalkRebuildsOnEdgeMutation: the run's edge arrays are reused
// while the edge table stands still and rebuilt, new edge included,
// once it changes.
func TestEdgeWalkRebuildsOnEdgeMutation(t *testing.T) {
	g := inputFixture(t)
	ri := newRunInput(g, 2, 1)
	ctx := context.Background()
	for i, want := range []bool{false, true} {
		if hit, err := ri.refreshEdges(ctx); err != nil || hit != want {
			t.Fatalf("refresh %d: hit=%v err=%v, want hit=%v", i, hit, err, want)
		}
	}
	if err := g.AddEdge(3, 1, 9, "new", 45); err != nil {
		t.Fatal(err)
	}
	if hit, err := ri.refreshEdges(ctx); err != nil || hit {
		t.Fatalf("refresh after mutation: hit=%v err=%v, want a rebuild", hit, err)
	}
	u3 := walkAll(t, ri, 0).units[3]
	if len(u3.edges) != 1 || u3.edges[0].Dst != 1 || u3.edges[0].Type != "new" {
		t.Errorf("vertex 3 edges after rebuild = %+v", u3.edges)
	}
}
