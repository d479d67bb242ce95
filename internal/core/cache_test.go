package core

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

func TestCacheHitAndBuildCounters(t *testing.T) {
	g := chainGraph(t, 8)
	stats, err := Run(context.Background(), g, propagate{}, Options{Workers: 2, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheBuilds != 1 {
		t.Errorf("cache builds = %d, want 1 (edges never mutate)", stats.CacheBuilds)
	}
	if stats.CacheHits != stats.Supersteps-1 {
		t.Errorf("cache hits = %d, want %d", stats.CacheHits, stats.Supersteps-1)
	}
	if !stats.Steps[1].CacheHit || stats.Steps[0].CacheHit {
		t.Errorf("per-step CacheHit flags wrong: %+v", stats.Steps)
	}
}

// TestActivePartitionSkipping drives a long chain: after the first few
// supersteps only the partitions holding the message frontier have any
// work, so most partitions must be skipped, and the answer must still
// be exact.
func TestActivePartitionSkipping(t *testing.T) {
	g := chainGraph(t, 24)
	stats, err := Run(context.Background(), g, propagate{}, Options{Workers: 2, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedParts == 0 {
		t.Error("expected quiescent partitions to be skipped on a chain frontier")
	}
	if stats.SkippedVerts == 0 {
		t.Error("expected halted vertices inside skipped partitions to be counted")
	}
	vals, _ := g.VertexValues()
	for i := 0; i < 24; i++ {
		if vals[int64(i)] != strconv.Itoa(i) {
			t.Errorf("vertex %d = %q, want %q", i, vals[int64(i)], strconv.Itoa(i))
		}
	}
	// A step late in the run must actually have skipped something.
	last := stats.Steps[len(stats.Steps)-2]
	if last.SkippedParts == 0 {
		t.Errorf("late superstep skipped no partitions: %+v", last)
	}
}

// edgeAdder propagates a counter along the chain and, while vertex 1
// computes in superstep 1, adds the edge 2→3 that the chain is missing.
// The run only reaches vertex 3 if the coordinator notices the edge
// table changed mid-run and rebuilds the cached edge partitions.
type edgeAdder struct {
	g *Graph
}

func (e edgeAdder) Compute(ctx *VertexContext, msgs []Message) error {
	if ctx.Superstep() == 1 && ctx.Id() == 1 {
		if err := e.g.AddEdge(2, 3, 1, "", 0); err != nil {
			return err
		}
	}
	return propagate{}.Compute(ctx, msgs)
}

func TestEdgeCacheInvalidationOnMidRunMutation(t *testing.T) {
	db := engine.New()
	g, err := CreateGraph(db, "mut")
	if err != nil {
		t.Fatal(err)
	}
	// Chain 0→1→2 plus isolated vertex 3; edge 2→3 arrives mid-run.
	if err := g.BulkLoad(map[int64]string{0: "", 1: "", 2: "", 3: ""},
		[]Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(context.Background(), g, edgeAdder{g: g}, Options{Workers: 2, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := g.VertexValues()
	if vals[3] != "3" {
		t.Errorf("vertex 3 = %q, want %q (stale edge cache?)", vals[3], "3")
	}
	if stats.CacheBuilds < 2 {
		t.Errorf("cache builds = %d, want >=2 (mid-run edge mutation must rebuild)", stats.CacheBuilds)
	}
}

// sleeper burns wall-clock per vertex so one superstep takes seconds —
// long enough to observe cancellation landing inside it.
type sleeper struct{}

func (sleeper) Compute(ctx *VertexContext, _ []Message) error {
	time.Sleep(2 * time.Millisecond)
	ctx.VoteToHalt()
	return nil
}

func TestCancelMidSuperstep(t *testing.T) {
	db := engine.New()
	g, err := CreateGraph(db, "slow")
	if err != nil {
		t.Fatal(err)
	}
	vals := make(map[int64]string, 1000)
	for i := int64(0); i < 1000; i++ {
		vals[i] = ""
	}
	if err := g.BulkLoad(vals, nil); err != nil {
		t.Fatal(err)
	}
	// Single worker, single partition: superstep 0 alone needs ~2s.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Run(ctx, g, sleeper{}, Options{Workers: 1, Partitions: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > time.Second {
		t.Errorf("cancellation took %v — ctx is not observed inside the superstep", elapsed)
	}
}

// TestCachedInputAssemblyUnits checks the input assembled from the
// run's edge arrays and one superstep's vertex+message rows, spread
// over several partitions, reconstructs the fixture's units.
func TestCachedInputAssemblyUnits(t *testing.T) {
	checkFixtureUnits(t, assemble(t, inputFixture(t), 4, 2, 0).units, "4 partitions")
}

// TestCachedSkipAccounting builds a fully-halted graph with no messages
// and checks every populated partition is skipped.
func TestCachedSkipAccounting(t *testing.T) {
	g := inputFixture(t)
	vt, _ := g.DB.Catalog().Get(g.VertexTable())
	n := vt.NumRows()
	idx := make([]int, n)
	halts := make([]storage.Value, n)
	for i := range idx {
		idx[i] = i
		halts[i] = storage.Bool(true)
	}
	if err := vt.UpdateInPlace(idx, 2, halts); err != nil {
		t.Fatal(err)
	}
	mt, _ := g.DB.Catalog().Get(g.MessageTable())
	mt.Truncate()

	a := assemble(t, g, 4, 1, 1)
	if len(a.parts) != 0 || a.ss.InputRows != 0 {
		t.Errorf("dispatched %d partitions (%d rows), want 0 (all quiescent)", len(a.parts), a.ss.InputRows)
	}
	if a.ss.SkippedVerts != 3 {
		t.Errorf("skipped vertices = %d, want 3", a.ss.SkippedVerts)
	}
	if a.ss.SkippedParts == 0 {
		t.Error("skipped partition count not recorded")
	}
}
