package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
)

// TestCombineMessages folds messages routed by two workers into two
// destination partitions and checks every combiner kind, the lone
// message kept verbatim, duplicate (dst, src) pairs, and the merged
// (dst, src, value) row order.
func TestCombineMessages(t *testing.T) {
	msgs := []Message{
		{Src: 4, Dst: 1, Value: "3"}, {Src: 2, Dst: 1, Value: "10"}, {Src: 2, Dst: 1, Value: "-2"},
		{Src: 9, Dst: 2, Value: "05"}, // lone: kept verbatim, src and all
		{Src: 1, Dst: 3, Value: "7"}, {Src: 1, Dst: 3, Value: "7"}, {Src: 6, Dst: 3, Value: "0.5"},
	}
	cases := []struct {
		comb Combiner
		want []Message
	}{
		{Combiner{Kind: AggregateSum}, []Message{{-1, 1, "11"}, {9, 2, "05"}, {-1, 3, "14.5"}}},
		{Combiner{Kind: AggregateMin}, []Message{{-1, 1, "-2"}, {9, 2, "05"}, {-1, 3, "0.5"}}},
		{Combiner{Kind: AggregateMax}, []Message{{-1, 1, "10"}, {9, 2, "05"}, {-1, 3, "7"}}},
	}
	intMsgs := slices.Clone(msgs)
	intMsgs[6].Value = "1"
	intCases := []struct {
		comb Combiner
		want []Message
	}{
		{Combiner{Kind: AggregateSum, Int: true}, []Message{{-1, 1, "11"}, {9, 2, "05"}, {-1, 3, "15"}}},
		{Combiner{Kind: AggregateMin, Int: true}, []Message{{-1, 1, "-2"}, {9, 2, "05"}, {-1, 3, "1"}}},
		{Combiner{Kind: AggregateMax, Int: true}, []Message{{-1, 1, "10"}, {9, 2, "05"}, {-1, 3, "7"}}},
	}
	check := func(in []Message, comb *Combiner, want []Message) {
		t.Helper()
		got, err := routeAndFold(in, comb, 0)
		if err != nil {
			t.Fatalf("%v: %v", comb, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: got %v, want %v", comb, got, want)
		}
	}
	for _, c := range cases {
		check(msgs, &c.comb, c.want)
	}
	for _, c := range intCases {
		check(intMsgs, &c.comb, c.want)
	}
	// Without a combiner every message is delivered, in (dst, src, value) order.
	sorted := slices.Clone(msgs)
	slices.SortFunc(sorted, compareMessages)
	check(msgs, nil, sorted)
	if sorted[0] != (Message{Src: 2, Dst: 1, Value: "-2"}) || sorted[4] != (Message{Src: 1, Dst: 3, Value: "7"}) {
		t.Errorf("row order: %v", sorted)
	}
}

// routeAndFold deals msgs round-robin to two workers, routes each to
// one of three destination partitions the way runPartition does, folds
// them and merges the runs into row order.
func routeAndFold(msgs []Message, comb *Combiner, step int) ([]Message, error) {
	const workers, parts = 2, 3
	routed := make([][][]Message, parts)
	for p := range routed {
		routed[p] = make([][]Message, workers)
	}
	for i, m := range msgs {
		p := int(uint64(m.Dst) % parts)
		routed[p][i%workers] = append(routed[p][i%workers], m)
	}
	runs, err := foldMessages(sched.NewBudget(2), workers, routed, comb, step)
	if err != nil {
		return nil, err
	}
	src, dst, val := mergeRuns(runs)
	var out []Message
	for i := range dst {
		out = append(out, Message{Src: src[i], Dst: dst[i], Value: val[i]})
	}
	return out, nil
}

// TestCombineRejectsUnparsableValue: a value that is not of the
// combiner's type fails the fold, naming the vertex and the superstep
// — also when its destination receives no other message.
func TestCombineRejectsUnparsableValue(t *testing.T) {
	for _, tc := range []struct {
		comb Combiner
		msgs []Message
	}{
		{Combiner{Kind: AggregateSum}, []Message{{1, 7, "0.5"}, {2, 7, "half"}}},
		{Combiner{Kind: AggregateMin, Int: true}, []Message{{1, 7, "2"}, {2, 7, "2.5"}}},
		{Combiner{Kind: AggregateMax}, []Message{{1, 7, ""}}},
	} {
		_, err := routeAndFold(tc.msgs, &tc.comb, 4)
		if err == nil || !strings.Contains(err.Error(), "vertex 7 superstep 4") {
			t.Errorf("%v over %v: err = %v", tc.comb, tc.msgs, err)
		}
	}

	g := chainGraph(t, 3)
	_, err := Run(context.Background(), g, badCombine{}, Options{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "vertex 1 superstep 0") {
		t.Fatalf("run with an unparsable message: err = %v", err)
	}
}

// badCombine sends a message its own combiner cannot read.
type badCombine struct{}

func (badCombine) Combiner() Combiner { return Combiner{Kind: AggregateSum} }

func (badCombine) Compute(ctx *VertexContext, _ []Message) error {
	ctx.SendMessageToAllNeighbors("not a number")
	ctx.VoteToHalt()
	return nil
}

// edgeRecorder records the out-edges vertex 0 sees in superstep 0.
type edgeRecorder struct {
	mu    *sync.Mutex
	edges *[]Edge
}

func (r edgeRecorder) Compute(ctx *VertexContext, _ []Message) error {
	if ctx.Id() == 0 {
		r.mu.Lock()
		*r.edges = slices.Clone(ctx.GetOutEdges())
		r.mu.Unlock()
	}
	ctx.VoteToHalt()
	return nil
}

// TestOutEdgesDstOrdered: a vertex with more than 12 parallel edges to
// one destination (distinct weights) sees its out-edges ordered by dst,
// parallel edges in edge-table order, on a single-shard and a sharded
// graph.
func TestOutEdgesDstOrdered(t *testing.T) {
	var edges []Edge
	for i := 0; i < 15; i++ {
		// Weights out of order, so a dst-only sort that is not stable
		// shows up as a permuted run of weights.
		edges = append(edges, Edge{Src: 0, Dst: 5, Weight: float64((i * 7) % 15), Created: int64(i)})
		if i%4 == 0 {
			edges = append(edges, Edge{Src: 0, Dst: int64(9 - i/4), Weight: 100 + float64(i)})
		}
	}
	want := slices.Clone(edges)
	slices.SortStableFunc(want, func(a, b Edge) int { return int(a.Dst - b.Dst) })

	for _, shards := range []int{1, 4} {
		g, err := CreateGraphSharded(engine.New(), "par", shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.BulkLoad(nil, edges); err != nil {
			t.Fatal(err)
		}
		var got []Edge
		rec := edgeRecorder{mu: &sync.Mutex{}, edges: &got}
		if _, err := Run(context.Background(), g, rec, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: out-edges\n got %s\nwant %s", shards, edgeList(got), edgeList(want))
		}
	}
}

func edgeList(es []Edge) string {
	var sb strings.Builder
	for _, e := range es {
		fmt.Fprintf(&sb, "%d/%g ", e.Dst, e.Weight)
	}
	return sb.String()
}
