package core

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/engine"
)

// chainGraph builds 0→1→2→...→n-1.
func chainGraph(t *testing.T, n int) *Graph {
	t.Helper()
	db := engine.New()
	g, err := CreateGraph(db, "chain")
	if err != nil {
		t.Fatal(err)
	}
	var edges []Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{Src: int64(i), Dst: int64(i + 1), Weight: 1})
	}
	vals := make(map[int64]string)
	for i := 0; i < n; i++ {
		vals[int64(i)] = ""
	}
	if err := g.BulkLoad(vals, edges); err != nil {
		t.Fatal(err)
	}
	return g
}

// propagate is a tiny program: vertex 0 starts a counter that each
// vertex increments and forwards; every vertex stores what it saw.
type propagate struct{}

func (propagate) Compute(ctx *VertexContext, msgs []Message) error {
	if ctx.Superstep() == 0 {
		if ctx.Id() == 0 {
			ctx.ModifyVertexValue("0")
			ctx.SendMessageToAllNeighbors("1")
		}
		ctx.VoteToHalt()
		return nil
	}
	for _, m := range msgs {
		n, err := strconv.Atoi(m.Value)
		if err != nil {
			return err
		}
		ctx.ModifyVertexValue(strconv.Itoa(n))
		ctx.SendMessageToAllNeighbors(strconv.Itoa(n + 1))
	}
	ctx.VoteToHalt()
	return nil
}

func TestCreateOpenDropGraph(t *testing.T) {
	db := engine.New()
	g, err := CreateGraph(db, "g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateGraph(db, "g"); err == nil {
		t.Error("duplicate graph should fail")
	}
	if _, err := OpenGraph(db, "g"); err != nil {
		t.Errorf("open existing: %v", err)
	}
	if _, err := OpenGraph(db, "nope"); err == nil {
		t.Error("open missing graph should fail")
	}
	if err := DropGraph(db, "g"); err != nil {
		t.Fatal(err)
	}
	if db.Catalog().Has(g.VertexTable()) {
		t.Error("drop left tables behind")
	}
}

func TestBulkLoadCreatesEndpoints(t *testing.T) {
	db := engine.New()
	g, _ := CreateGraph(db, "g")
	if err := g.BulkLoad(nil, []Edge{{Src: 5, Dst: 9}}); err != nil {
		t.Fatal(err)
	}
	n, _ := g.NumVertices()
	if n != 2 {
		t.Errorf("vertices = %d, want 2 (edge endpoints auto-created)", n)
	}
	m, _ := g.NumEdges()
	if m != 1 {
		t.Errorf("edges = %d", m)
	}
}

func TestPropagationAcrossSupersteps(t *testing.T) {
	g := chainGraph(t, 5)
	stats, err := Run(context.Background(), g, propagate{}, Options{Workers: 2, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := g.VertexValues()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		want := strconv.Itoa(i)
		if vals[int64(i)] != want {
			t.Errorf("vertex %d value = %q, want %q", i, vals[int64(i)], want)
		}
	}
	if stats.Supersteps != 5 {
		t.Errorf("supersteps = %d, want 5", stats.Supersteps)
	}
}

// TestUpdateVsReplacePathsAgree reaches both write-back paths from the
// data: superstep 0 flips every vertex's halted flag (replace), and each
// later superstep changes only the one vertex the counter reached
// (update in place). The chain must end holding 0..n-1 either way.
func TestUpdateVsReplacePathsAgree(t *testing.T) {
	const n = 24
	g := chainGraph(t, n)
	stats, err := Run(context.Background(), g, propagate{}, Options{Workers: 2, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	replaced, updated := 0, 0
	for _, st := range stats.Steps {
		switch {
		case st.Updated == 0:
		case st.UsedReplace:
			replaced++
		default:
			updated++
		}
	}
	if first := stats.Steps[0]; !first.UsedReplace || first.Updated != n {
		t.Errorf("superstep 0: updated=%d replace=%v, want %d tuples replaced", first.Updated, first.UsedReplace, n)
	}
	if replaced == 0 || updated == 0 {
		t.Errorf("write-back paths: %d replace, %d update supersteps; want both", replaced, updated)
	}
	vals, err := g.VertexValues()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if want := strconv.Itoa(i); vals[int64(i)] != want {
			t.Errorf("vertex %d = %q, want %q", i, vals[int64(i)], want)
		}
	}
}

func TestSingleWorkerSinglePartition(t *testing.T) {
	g := chainGraph(t, 4)
	_, err := Run(context.Background(), g, propagate{}, Options{Workers: 1, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := g.VertexValues()
	if vals[3] != "3" {
		t.Errorf("tail value = %q", vals[3])
	}
}

// panicky panics at a specific vertex to test worker recovery.
type panicky struct{}

func (panicky) Compute(ctx *VertexContext, _ []Message) error {
	if ctx.Id() == 2 {
		panic("kaboom")
	}
	ctx.VoteToHalt()
	return nil
}

func TestWorkerPanicIsRecovered(t *testing.T) {
	g := chainGraph(t, 4)
	_, err := Run(context.Background(), g, panicky{}, Options{Workers: 2})
	if err == nil {
		t.Fatal("panic in vertex program must surface as error")
	}
}

// failing returns an error from Compute.
type failing struct{}

func (failing) Compute(ctx *VertexContext, _ []Message) error {
	if ctx.Id() == 1 {
		return errTest
	}
	ctx.VoteToHalt()
	return nil
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestComputeErrorPropagates(t *testing.T) {
	g := chainGraph(t, 3)
	if _, err := Run(context.Background(), g, failing{}, Options{Workers: 2}); err == nil {
		t.Fatal("compute error must propagate")
	}
}

func TestContextCancellation(t *testing.T) {
	g := chainGraph(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, g, propagate{}, Options{}); err == nil {
		t.Fatal("cancelled context must abort the run")
	}
}

func TestMaxSuperstepsBound(t *testing.T) {
	g := chainGraph(t, 100)
	stats, err := Run(context.Background(), g, propagate{}, Options{MaxSupersteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 3 {
		t.Errorf("supersteps = %d, want 3 (bounded)", stats.Supersteps)
	}
}

func TestDanglingMessageCounted(t *testing.T) {
	db := engine.New()
	g, _ := CreateGraph(db, "g")
	if err := g.BulkLoad(map[int64]string{1: ""}, nil); err != nil {
		t.Fatal(err)
	}
	// Vertex 1 sends to nonexistent vertex 99.
	prog := sendTo99{}
	stats, err := Run(context.Background(), g, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DanglingMessages != 1 {
		t.Errorf("dangling = %d, want 1", stats.DanglingMessages)
	}
}

type sendTo99 struct{}

func (sendTo99) Compute(ctx *VertexContext, _ []Message) error {
	if ctx.Superstep() == 0 {
		ctx.SendMessage(99, "hello")
	}
	ctx.VoteToHalt()
	return nil
}

// haltedVertexReactivation: vertex 2 halts in step 0, vertex 0 messages
// it in step 1 via the chain; it must wake up and record the message.
func TestHaltedVertexReactivation(t *testing.T) {
	g := chainGraph(t, 3)
	_, err := Run(context.Background(), g, propagate{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := g.VertexValues()
	if vals[2] != "2" {
		t.Errorf("reactivated vertex value = %q, want 2", vals[2])
	}
}

func TestRunStatsShape(t *testing.T) {
	g := chainGraph(t, 4)
	stats, err := Run(context.Background(), g, propagate{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Steps) != stats.Supersteps {
		t.Errorf("steps len %d != supersteps %d", len(stats.Steps), stats.Supersteps)
	}
	if stats.Steps[0].Computed != 4 {
		t.Errorf("superstep 0 computes all vertices; got %d", stats.Steps[0].Computed)
	}
	if stats.Steps[0].InputRows == 0 {
		t.Error("input rows should be recorded")
	}
}

func TestResetForRun(t *testing.T) {
	g := chainGraph(t, 3)
	if _, err := Run(context.Background(), g, propagate{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := g.ResetForRun(func(id int64) string { return "init" }); err != nil {
		t.Fatal(err)
	}
	vals, _ := g.VertexValues()
	for id, v := range vals {
		if v != "init" {
			t.Errorf("vertex %d = %q after reset", id, v)
		}
	}
	mt, _ := g.DB.Catalog().Get(g.MessageTable())
	if mt.NumRows() != 0 {
		t.Error("message table should be empty after reset")
	}
}

func TestSetVertexValues(t *testing.T) {
	g := chainGraph(t, 3)
	if err := g.SetVertexValues(map[int64]string{1: "special"}); err != nil {
		t.Fatal(err)
	}
	vals, _ := g.VertexValues()
	if vals[1] != "special" || vals[0] == "special" {
		t.Error("SetVertexValues applied wrong rows")
	}
}

func TestAggregatorUndeclaredErrors(t *testing.T) {
	g := chainGraph(t, 2)
	if _, err := Run(context.Background(), g, badAgg{}, Options{}); err == nil {
		t.Fatal("undeclared aggregator must error")
	}
}

type badAgg struct{}

func (badAgg) Compute(ctx *VertexContext, _ []Message) error {
	if err := ctx.Aggregate("nope", 1); err != nil {
		return err
	}
	ctx.VoteToHalt()
	return nil
}
