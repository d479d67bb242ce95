package exec

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

// Fast-path oracles: the vectorized hash-join and aggregate paths must
// agree with their generic counterparts on random data.

func TestHashJoinFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		l := storage.NewTable("l", storage.NewSchema(intCol("k"), intCol("payload")))
		r := storage.NewTable("r", storage.NewSchema(intCol("k"), storage.Col("s", storage.TypeString)))
		for i := 0; i < 40; i++ {
			_ = l.AppendRow(iv(int64(rng.Intn(10))), iv(int64(i)))
		}
		for i := 0; i < 30; i++ {
			_ = r.AppendRow(iv(int64(rng.Intn(10))), sv(string(rune('a'+rng.Intn(26)))))
		}
		for _, typ := range []JoinType{InnerJoin, LeftJoin} {
			// Fast path: single int64 key, no residual.
			fast := &HashJoin{Left: NewTableScan(l), Right: NewTableScan(r),
				LeftKeys: []int{0}, RightKeys: []int{0}, Type: typ}
			fout, err := Drain(fast)
			if err != nil {
				t.Fatal(err)
			}
			// Force the generic path with a trivially-true residual.
			always, err := expr.NewBinary(expr.OpEq,
				&expr.Literal{Val: storage.Int64(1)}, &expr.Literal{Val: storage.Int64(1)})
			if err != nil {
				t.Fatal(err)
			}
			generic := &HashJoin{Left: NewTableScan(l), Right: NewTableScan(r),
				LeftKeys: []int{0}, RightKeys: []int{0}, Type: typ, Residual: always}
			gout, err := Drain(generic)
			if err != nil {
				t.Fatal(err)
			}
			if !batchesEqualUnordered(fout, gout) {
				t.Fatalf("trial %d type %d: fast path (%d rows) != generic (%d rows)",
					trial, typ, fout.Len(), gout.Len())
			}
		}
	}
}

func TestHashJoinFastPathEmitsBatches(t *testing.T) {
	l := storage.NewTable("l", storage.NewSchema(intCol("k")))
	r := storage.NewTable("r", storage.NewSchema(intCol("k")))
	for i := int64(0); i < int64(storage.BatchSize)+100; i++ {
		_ = l.AppendRow(iv(i))
		_ = r.AppendRow(iv(i))
	}
	j := &HashJoin{Left: NewTableScan(l), Right: NewTableScan(r),
		LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	total, batches := 0, 0
	for {
		b, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		total += b.Len()
		batches++
	}
	if total != storage.BatchSize+100 {
		t.Errorf("rows = %d", total)
	}
	if batches < 2 {
		t.Errorf("fast path should emit multiple batches, got %d", batches)
	}
}

func TestAggregateFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tb := storage.NewTable("t", storage.NewSchema(intCol("g"), storage.Col("x", storage.TypeFloat64)))
	for i := 0; i < 200; i++ {
		if rng.Intn(12) == 0 {
			_ = tb.AppendRow(iv(int64(rng.Intn(6))), storage.Null(storage.TypeFloat64))
		} else {
			_ = tb.AppendRow(iv(int64(rng.Intn(6))), storage.Float64(rng.Float64()*10))
		}
	}
	g := colRef(tb.Schema(), "g")
	x := colRef(tb.Schema(), "x")
	mk := func(distinct bool) *HashAggregate {
		return &HashAggregate{
			Input:   NewTableScan(tb),
			GroupBy: []expr.Expr{g},
			Aggs: []*expr.Aggregate{
				{Kind: expr.AggCountStar},
				{Kind: expr.AggSum, Input: x},
				{Kind: expr.AggMin, Input: x},
				{Kind: expr.AggMax, Input: x},
				{Kind: expr.AggCount, Input: x, Distinct: distinct},
			},
			Names: []string{"g", "n", "s", "lo", "hi", "c"},
		}
	}
	// distinct=true disables the fast path; distinct=false engages it.
	// COUNT(DISTINCT x) == COUNT(x) here because floats rarely collide.
	fast, err := Drain(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Drain(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if !batchesEqualUnordered(fast, slow) {
		t.Fatalf("fast aggregate (%d groups) != generic (%d groups)", fast.Len(), slow.Len())
	}
}

func TestAggregateFastPathNullKeysFallBack(t *testing.T) {
	tb := storage.NewTable("t", storage.NewSchema(intCol("g")))
	_ = tb.AppendRow(storage.Null(storage.TypeInt64))
	_ = tb.AppendRow(iv(1))
	_ = tb.AppendRow(storage.Null(storage.TypeInt64))
	agg := &HashAggregate{
		Input:   NewTableScan(tb),
		GroupBy: []expr.Expr{colRef(tb.Schema(), "g")},
		Aggs:    []*expr.Aggregate{{Kind: expr.AggCountStar}},
		Names:   []string{"g", "n"},
	}
	out, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d, want 2 (NULLs group together via fallback)", out.Len())
	}
}

func TestGatherPad(t *testing.T) {
	c := storage.NewInt64Column([]int64{10, 20, 30})
	out := storage.GatherPad(c, []int{2, -1, 0})
	if out.Value(0).I != 30 || !out.IsNull(1) || out.Value(2).I != 10 {
		t.Errorf("GatherPad = %v %v %v", out.Value(0), out.Value(1), out.Value(2))
	}
	// Without pads it must behave exactly like Gather.
	plain := storage.GatherPad(c, []int{1, 1})
	if plain.Value(0).I != 20 || plain.Value(1).I != 20 {
		t.Error("GatherPad without -1 should equal Gather")
	}
}
