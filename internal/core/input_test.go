package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
)

// inputFixture builds a graph with one pending message so the union
// has all three tuple kinds to reassemble.
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

func collectUnits(t *testing.T, parts []*storage.Batch) map[int64]workUnit {
	t.Helper()
	units := map[int64]workUnit{}
	for _, p := range parts {
		us, _ := parseUnionPartition(p)
		for _, u := range us {
			if _, dup := units[u.id]; dup {
				t.Fatalf("vertex %d appears in two partitions", u.id)
			}
			units[u.id] = u
		}
	}
	return units
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

func TestUnionInputAssembly(t *testing.T) {
	g := inputFixture(t)
	parts, err := buildUnionInput(context.Background(), g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkFixtureUnits(t, collectUnits(t, parts), "union")
}

func TestUnionInputRowCount(t *testing.T) {
	// A vertex with m messages and e edges contributes m+e+1 union rows,
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
	parts, err := buildUnionInput(context.Background(), g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, p := range parts {
		rows += p.Len()
	}
	// 5 vertices + 4 edges + 3 messages.
	if rows != 12 {
		t.Errorf("union rows = %d, want 12 (m+e+v)", rows)
	}
	if u := collectUnits(t, parts)[0]; len(u.msgs) != 3 || len(u.edges) != 4 {
		t.Errorf("vertex 0 reassembled %d msgs / %d edges, want 3/4", len(u.msgs), len(u.edges))
	}
}

func TestPartitionAndSortParallelMatchesSerial(t *testing.T) {
	g := inputFixture(t)
	rows, err := g.DB.Query(unionInputSQL(g))
	if err != nil {
		t.Fatal(err)
	}
	data, err := rows.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	serial := partitionAndSort(data, 4, 1, nil)
	parallel := partitionAndSort(data, 4, 8, nil)
	if len(serial) != len(parallel) {
		t.Fatalf("partition counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Len() != parallel[i].Len() {
			t.Fatalf("partition %d sizes differ", i)
		}
		for r := 0; r < serial[i].Len(); r++ {
			a, b := serial[i].Row(r), parallel[i].Row(r)
			for c := range a {
				if storage.Compare(a[c], b[c]) != 0 {
					t.Fatalf("partition %d row %d differs", i, r)
				}
			}
		}
	}
}

func TestDanglingUnionMessageNotComputed(t *testing.T) {
	g := inputFixture(t)
	mt, _ := g.DB.Catalog().Get(g.MessageTable())
	_ = mt.AppendRow(storage.Int64(1), storage.Int64(999), storage.Str("ghost"))
	parts, err := buildUnionInput(context.Background(), g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dangling := 0
	for _, p := range parts {
		_, d := parseUnionPartition(p)
		dangling += d
	}
	if dangling != 1 {
		t.Errorf("dangling = %d, want 1", dangling)
	}
}
