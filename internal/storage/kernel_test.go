package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Property tests for the typed storage kernels (SortBatch,
// MergeSortedBatches, MergeSpillRuns, Concat, AppendBatch) against the
// boxed, value-at-a-time implementations they replaced, kept here as
// references. Inputs cover all four column types, NULLs, NaN, ±0, ±Inf,
// empty strings, heavy duplicates, several keys and Desc.

// refSortBatch is the boxed stable sort: sort.SliceStable over Compare.
func refSortBatch(b *Batch, keys []SortKey) *Batch {
	idx := identity(b.Len())
	sort.SliceStable(idx, func(x, y int) bool {
		for _, k := range keys {
			c := Compare(b.Cols[k.Col].Value(idx[x]), b.Cols[k.Col].Value(idx[y]))
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return b.Gather(idx)
}

// refConcat appends src to dst one boxed cell at a time.
func refConcat(dst, src *Batch) error {
	for j := range dst.Cols {
		for i := 0; i < src.Cols[j].Len(); i++ {
			if err := dst.Cols[j].Append(src.Cols[j].Value(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// cloneBatch deep-copies a batch (Slice copies values and bitmaps).
func cloneBatch(b *Batch) *Batch {
	return b.Slice(0, b.Len())
}

// kernelGen draws test inputs from a byte source: a seeded RNG for the
// property tests, the fuzzer's bytes (then zeros) for FuzzSortBatch.
type kernelGen struct{ next func() byte }

func rngGen(seed int64) kernelGen {
	rng := rand.New(rand.NewSource(seed))
	return kernelGen{next: func() byte { return byte(rng.Intn(256)) }}
}

func bytesGen(data []byte) kernelGen {
	return kernelGen{next: func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}}
}

var kernelTypes = []Type{TypeInt64, TypeFloat64, TypeString, TypeBool}

// value draws from small pools so duplicates are common; every fifth
// value is NULL.
func (g kernelGen) value(t Type) Value {
	if g.next()%5 == 0 {
		return Null(t)
	}
	k := int(g.next())
	switch t {
	case TypeInt64:
		pool := []int64{0, 1, -1, 2, 7, math.MinInt64, math.MaxInt64}
		return Int64(pool[k%len(pool)])
	case TypeFloat64:
		pool := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -1.5, 2}
		return Float64(pool[k%len(pool)])
	case TypeString:
		pool := []string{"", "a", "b", "ab", "B", "1", "true"}
		return Str(pool[k%len(pool)])
	default:
		return Bool(k%2 == 1)
	}
}

// schema returns 1–4 random columns plus a trailing row-number column,
// so rows that tie on every key still differ and order is observable.
func (g kernelGen) schema() Schema {
	n := 1 + int(g.next())%4
	defs := make([]ColumnDef, 0, n+1)
	for i := 0; i < n; i++ {
		defs = append(defs, Col(fmt.Sprintf("c%d", i), kernelTypes[int(g.next())%len(kernelTypes)]))
	}
	return NewSchema(append(defs, Col("seq", TypeInt64))...)
}

func (g kernelGen) batch(s Schema, rows, seq0 int) *Batch {
	b := NewBatch(s)
	for r := 0; r < rows; r++ {
		vals := make([]Value, s.Len())
		for j, c := range s.Cols {
			if c.Name == "seq" {
				vals[j] = Int64(int64(seq0 + r))
				continue
			}
			vals[j] = g.value(c.Type)
		}
		if err := b.AppendRow(vals...); err != nil {
			panic(err)
		}
	}
	return b
}

// keys returns 1–3 sort keys over the random columns (never seq).
func (g kernelGen) keys(s Schema) []SortKey {
	keys := make([]SortKey, 1+int(g.next())%3)
	for k := range keys {
		keys[k] = SortKey{Col: int(g.next()) % (s.Len() - 1), Desc: g.next()%2 == 1}
	}
	return keys
}

// cellString renders one cell exactly: NULL, or the value with floats
// by bit pattern (so -0 ≠ +0 and NaN payloads count).
func cellString(c Column, i int) string {
	if c.IsNull(i) {
		return "NULL"
	}
	v := c.Value(i)
	if v.Type == TypeFloat64 {
		return fmt.Sprintf("f%x", math.Float64bits(v.F))
	}
	return fmt.Sprintf("%d:%s", v.Type, v.String())
}

// sameBatch fails unless got and want hold identical cells, column
// types, and null-bitmap presence.
func sameBatch(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows × %d cols, want %d × %d", what, got.Len(), len(got.Cols), want.Len(), len(want.Cols))
	}
	for j := range want.Cols {
		gc, wc := got.Cols[j], want.Cols[j]
		if gc.Type() != wc.Type() || gc.Len() != wc.Len() {
			t.Fatalf("%s: col %d is %s[%d], want %s[%d]", what, j, gc.Type(), gc.Len(), wc.Type(), wc.Len())
		}
		if gn, wn := NullsOf(gc), NullsOf(wc); (gn == nil) != (wn == nil) || (gn != nil && gn.Len() != wn.Len()) {
			t.Fatalf("%s: col %d null bitmap %v, want %v", what, j, gn, wn)
		}
		for i := 0; i < wc.Len(); i++ {
			if g, w := cellString(gc, i), cellString(wc, i); g != w {
				t.Fatalf("%s: row %d col %d = %s, want %s", what, i, j, g, w)
			}
		}
	}
}

// checkSortMerge checks SortBatch against the reference, and both merge
// paths against SortBatch of the concatenation.
func checkSortMerge(t *testing.T, g kernelGen, spillDir string) {
	s := g.schema()
	keys := g.keys(s)
	a := g.batch(s, int(g.next())%40, 0)
	b := g.batch(s, int(g.next())%40, 1000)
	what := fmt.Sprintf("keys %v", keys)

	sa := SortBatch(a, keys)
	sameBatch(t, "SortBatch "+what, sa, refSortBatch(a, keys))
	sb := SortBatch(b, keys)

	all := cloneBatch(a)
	if err := refConcat(all, b); err != nil {
		t.Fatal(err)
	}
	want := refSortBatch(all, keys)
	sameBatch(t, "MergeSortedBatches "+what, MergeSortedBatches(sa, sb, keys), want)

	if spillDir == "" {
		return
	}
	// Small frames make MergeSpillRuns cut frames against each other.
	fs := OSSpillFS{Dir: spillDir}
	frame := 1 + int(g.next())%5
	runA, runB := writeFrames(t, fs, sa, frame), writeFrames(t, fs, sb, frame)
	defer runA.Close()
	defer runB.Close()
	merged, err := MergeSpillRuns(fs, runA, runB, keys)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	got := NewBatch(s)
	for i := 0; i < merged.Frames(); i++ {
		f, err := merged.ReadFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := refConcat(got, f); err != nil {
			t.Fatal(err)
		}
	}
	requireSameCells(t, "MergeSpillRuns "+what, got, want)
}

// requireSameCells is sameBatch without the bitmap-presence check: a
// spill round trip rebuilds bitmaps.
func requireSameCells(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
	}
	for j := range want.Cols {
		for i := 0; i < want.Len(); i++ {
			if g, w := cellString(got.Cols[j], i), cellString(want.Cols[j], i); g != w {
				t.Fatalf("%s: row %d col %d = %s, want %s", what, i, j, g, w)
			}
		}
	}
}

func writeFrames(t *testing.T, fs SpillFS, b *Batch, frame int) *SpillRun {
	t.Helper()
	w, err := NewRunWriter(fs, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < b.Len(); lo += frame {
		if err := w.Write(b.Slice(lo, min(lo+frame, b.Len()))); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestSortAndMergeMatchBoxedReference(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 300; seed++ {
		checkSortMerge(t, rngGen(seed), dir)
	}
}

func FuzzSortBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 1, 9, 1, 1, 30, 20, 0, 4, 1, 5, 2, 6, 3})
	f.Add([]byte{1, 1, 2, 0, 1, 1, 0, 60, 60, 1, 0, 2, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortMerge(t, bytesGen(data), "")
	})
}

// TestConcatMatchesBoxedReference: typed Concat produces the same cells
// and null bitmaps as per-cell appends, coerces mismatched column types
// the same way, and leaves dst unchanged when a cast fails.
func TestConcatMatchesBoxedReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := rngGen(seed)
		s := g.schema()
		dst := g.batch(s, int(g.next())%20, 0)
		// src shares the arity; some columns get another type to coerce.
		defs := make([]ColumnDef, s.Len())
		for j, c := range s.Cols {
			defs[j] = c
			if g.next()%4 == 0 {
				defs[j] = Col(c.Name, kernelTypes[int(g.next())%len(kernelTypes)])
			}
		}
		src := g.batch(NewSchema(defs...), int(g.next())%20, 100)

		got, want := cloneBatch(dst), cloneBatch(dst)
		errGot, errWant := Concat(got, src), refConcat(want, src)
		if (errGot != nil) != (errWant != nil) {
			t.Fatalf("seed %d: Concat err %v, reference err %v", seed, errGot, errWant)
		}
		if errWant != nil {
			sameBatch(t, fmt.Sprintf("seed %d: failed Concat", seed), got, dst)
			continue
		}
		sameBatch(t, fmt.Sprintf("seed %d: Concat", seed), got, want)
	}
}

// TestAppendBatchMatchesAppendRow: AppendBatch places every row in the
// same shard, in the same per-shard order, as row-at-a-time AppendRow;
// a batch with a NOT NULL violation or a failed cast changes nothing;
// and a Snapshot frozen before the append still reads as it did.
func TestAppendBatchMatchesAppendRow(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := rngGen(seed)
		s := g.schema()
		defs := append([]ColumnDef(nil), s.Cols...)
		for j := range defs {
			defs[j].NotNull = g.next()%4 == 0
		}
		schema := NewSchema(defs...)
		shards := 1 + int(g.next())%5
		keyCol := 0
		if shards == 1 && g.next()%2 == 0 {
			keyCol = -1
		}
		tb := NewShardedTable("t", schema, keyCol, shards)
		ref := NewShardedTable("t", schema, keyCol, shards)

		nonNull := NewSchema(s.Cols...)
		pre := g.batch(nonNull, int(g.next())%10, 0)
		for i := 0; i < pre.Len(); i++ {
			errA, errB := tb.AppendRow(pre.Row(i)...), ref.AppendRow(pre.Row(i)...)
			if (errA != nil) != (errB != nil) {
				t.Fatalf("seed %d: prefill diverged: %v vs %v", seed, errA, errB)
			}
		}
		snap := tb.Snapshot()
		frozen := make([]*Batch, shards)
		for i := range frozen {
			frozen[i] = cloneBatch(snap.ShardBatch(i))
		}

		// Most batch columns carry the table's type; some need coercion.
		bdefs := make([]ColumnDef, schema.Len())
		for j, c := range s.Cols {
			bdefs[j] = c
			if g.next()%5 == 0 {
				bdefs[j] = Col(c.Name, kernelTypes[int(g.next())%len(kernelTypes)])
			}
		}
		b := g.batch(NewSchema(bdefs...), int(g.next())%30, 100)
		wantErr := false
		for i := 0; i < b.Len() && !wantErr; i++ {
			for j, v := range b.Row(i) {
				if _, err := Coerce(v, schema.Cols[j].Type); err != nil || (v.Null && schema.Cols[j].NotNull) {
					wantErr = true
				}
			}
		}
		if err := tb.AppendBatch(b); (err != nil) != wantErr {
			t.Fatalf("seed %d: AppendBatch err = %v, want error %v", seed, err, wantErr)
		}
		if !wantErr {
			for i := 0; i < b.Len(); i++ {
				if err := ref.AppendRow(b.Row(i)...); err != nil {
					t.Fatalf("seed %d: reference AppendRow: %v", seed, err)
				}
			}
		}
		for i := 0; i < shards; i++ {
			requireSameCells(t, fmt.Sprintf("seed %d shard %d", seed, i), tb.ShardBatch(i), ref.ShardBatch(i))
			requireSameCells(t, fmt.Sprintf("seed %d frozen shard %d", seed, i), snap.ShardBatch(i), frozen[i])
		}
	}
}

// refGatherSources is the boxed multi-source gather: one Append per
// picked cell.
func refGatherSources(t Type, srcs []Column, picks []SourceRow) Column {
	out := NewColumn(t, len(picks))
	for _, p := range picks {
		if err := out.Append(srcs[p.Src].Value(int(p.Row))); err != nil {
			panic(err)
		}
	}
	return out
}

// TestGatherSourcesMatchesBoxedReference: the typed multi-source gather
// yields the boxed reference's cells and null-bitmap presence for every
// column type, over one or several sources, including empty sources and
// empty picks.
func TestGatherSourcesMatchesBoxedReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := rngGen(seed)
		s := g.schema()
		srcs := make([]*Batch, 1+int(g.next())%4)
		var nonEmpty []int
		for i := range srcs {
			srcs[i] = g.batch(s, int(g.next())%20, 100*i)
			if srcs[i].Len() > 0 {
				nonEmpty = append(nonEmpty, i)
			}
		}
		var picks []SourceRow
		if len(nonEmpty) > 0 {
			picks = make([]SourceRow, int(g.next())%40)
			for k := range picks {
				src := nonEmpty[int(g.next())%len(nonEmpty)]
				picks[k] = SourceRow{Src: int32(src), Row: int32(int(g.next()) % srcs[src].Len())}
			}
		}
		got := &Batch{Schema: s, Cols: make([]Column, s.Len())}
		want := &Batch{Schema: s, Cols: make([]Column, s.Len())}
		for j, c := range s.Cols {
			cols := make([]Column, len(srcs))
			for i, b := range srcs {
				cols[i] = b.Cols[j]
			}
			got.Cols[j] = GatherSources(c.Type, cols, picks)
			want.Cols[j] = refGatherSources(c.Type, cols, picks)
		}
		sameBatch(t, fmt.Sprintf("seed %d: %d sources, %d picks", seed, len(srcs), len(picks)), got, want)
	}
}

// TestGatherPadMatchesBoxedReference: the typed GatherPad yields the
// cells of a boxed gather in which index -1 appends NULL. (Without a
// pad it is Gather, which may keep an all-clear bitmap, so bitmap
// presence is not compared.)
func TestGatherPadMatchesBoxedReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := rngGen(seed)
		s := g.schema()
		src := g.batch(s, int(g.next())%20, 0)
		idx := make([]int, int(g.next())%30)
		for k := range idx {
			idx[k] = -1
			if src.Len() > 0 && g.next()%3 != 0 {
				idx[k] = int(g.next()) % src.Len()
			}
		}
		got := &Batch{Schema: s, Cols: make([]Column, s.Len())}
		want := &Batch{Schema: s, Cols: make([]Column, s.Len())}
		for j, c := range src.Cols {
			got.Cols[j] = GatherPad(c, idx)
			ref := NewColumn(c.Type(), len(idx))
			for _, i := range idx {
				if i < 0 {
					ref.AppendNull()
				} else if err := ref.Append(c.Value(i)); err != nil {
					t.Fatal(err)
				}
			}
			want.Cols[j] = ref
		}
		requireSameCells(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

// TestHashKeysMatchesHashRow: column-wise key hashing agrees with
// HashRow over the boxed key values on every non-NULL row (so both
// join sides route alike), flags exactly the rows with a NULL key, and
// hashes a sub-range like the whole batch.
func TestHashKeysMatchesHashRow(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := rngGen(seed)
		s := g.schema()
		b := g.batch(s, int(g.next())%40, 0)
		keys := make([]int, 1+int(g.next())%3)
		for k := range keys {
			keys[k] = int(g.next()) % s.Len()
		}
		lo := 0
		if b.Len() > 0 {
			lo = int(g.next()) % b.Len()
		}
		hashes, nulls := make([]uint64, b.Len()-lo), make([]bool, b.Len()-lo)
		HashKeys(b, keys, lo, b.Len(), hashes, nulls)
		for i := lo; i < b.Len(); i++ {
			vals := make([]Value, len(keys))
			null := false
			for k, c := range keys {
				vals[k] = b.Cols[c].Value(i)
				null = null || vals[k].Null
			}
			if nulls[i-lo] != null {
				t.Fatalf("seed %d row %d: null flag %v, want %v", seed, i, nulls[i-lo], null)
			}
			if !null && hashes[i-lo] != HashRow(vals) {
				t.Fatalf("seed %d row %d: hash %x, want HashRow %x", seed, i, hashes[i-lo], HashRow(vals))
			}
		}
	}
}

// TestKeysEqualMatchesCompare: the typed key-equality check agrees with
// pairwise Compare over boxed values, NULL never equal, including keys
// whose two sides differ in type.
func TestKeysEqualMatchesCompare(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := rngGen(seed)
		s := g.schema()
		a, b := g.batch(s, 1+int(g.next())%15, 0), g.batch(s, 1+int(g.next())%15, 0)
		akeys, bkeys := make([]int, 1+int(g.next())%3), make([]int, 0, 3)
		for k := range akeys {
			akeys[k] = int(g.next()) % s.Len()
			bkeys = append(bkeys, int(g.next())%s.Len())
		}
		eq := KeysEqual(a, akeys, b, bkeys)
		for i := 0; i < a.Len(); i++ {
			for j := 0; j < b.Len(); j++ {
				want := true
				for k := range akeys {
					av, bv := a.Cols[akeys[k]].Value(i), b.Cols[bkeys[k]].Value(j)
					if av.Null || bv.Null || Compare(av, bv) != 0 {
						want = false
					}
				}
				if got := eq(i, j); got != want {
					t.Fatalf("seed %d: KeysEqual(%d, %d) = %v, want %v", seed, i, j, got, want)
				}
			}
		}
	}
}
