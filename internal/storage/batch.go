package storage

import (
	"cmp"
	"fmt"
	"slices"
)

// BatchSize is the default number of rows in a record batch produced by
// the vectorized executor.
const BatchSize = 1024

// Batch is a set of equal-length columns: the unit of data flow between
// executor operators.
type Batch struct {
	Schema Schema
	Cols   []Column
}

// NewBatch allocates an empty batch with columns matching the schema.
func NewBatch(s Schema) *Batch {
	b := &Batch{Schema: s, Cols: make([]Column, s.Len())}
	for i, c := range s.Cols {
		b.Cols[i] = NewColumn(c.Type, BatchSize)
	}
	return b
}

// Len returns the number of rows in the batch (0 for an empty batch).
func (b *Batch) Len() int {
	if b == nil || len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Row materializes row i as a slice of values (mostly for tests, result
// rendering, and the tuple-at-a-time vertex workers).
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.Cols))
	for j, c := range b.Cols {
		out[j] = c.Value(i)
	}
	return out
}

// AppendRow appends a row of values, coercing to the schema types.
func (b *Batch) AppendRow(vals ...Value) error {
	if len(vals) != len(b.Cols) {
		return fmt.Errorf("storage: row has %d values, schema has %d columns", len(vals), len(b.Cols))
	}
	for j, v := range vals {
		if err := b.Cols[j].Append(v); err != nil {
			return err
		}
	}
	return nil
}

// Gather returns a new batch containing the rows at the given indexes.
func (b *Batch) Gather(idx []int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]Column, len(b.Cols))}
	for j, c := range b.Cols {
		out.Cols[j] = c.Gather(idx)
	}
	return out
}

// Slice returns rows [from, to) as a new batch.
func (b *Batch) Slice(from, to int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]Column, len(b.Cols))}
	for j, c := range b.Cols {
		out.Cols[j] = c.Slice(from, to)
	}
	return out
}

// SortKey describes one sort criterion for SortBatch.
type SortKey struct {
	Col  int
	Desc bool
}

// SortBatch returns a new batch with rows reordered by the sort keys
// (stable). NULLs sort first, matching Compare. The permutation is
// sorted under the typed row comparator with the row index as the last
// tiebreak, which is a total order whose result equals the stable sort.
func SortBatch(b *Batch, keys []SortKey) *Batch {
	rows := rowComparator(b, b, keys)
	idx := identity(b.Len())
	slices.SortFunc(idx, func(x, y int) int {
		if c := rows(x, y); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return b.Gather(idx)
}

// rowComparator returns a function comparing row i of a with row j of b
// under the sort keys, in exactly the order Compare gives the boxed
// values: NULLs first, NaN below every number, and Desc reversing the
// whole key (NULLs then sort last). It reads the typed value slices
// directly; a key whose two columns differ in type falls back to Compare.
func rowComparator(a, b *Batch, keys []SortKey) func(i, j int) int {
	cmps := make([]func(i, j int) int, len(keys))
	for k, key := range keys {
		cmps[k] = keyComparator(a.Cols[key.Col], b.Cols[key.Col], key.Desc)
	}
	if len(cmps) == 1 {
		return cmps[0]
	}
	return func(i, j int) int {
		for _, c := range cmps {
			if r := c(i, j); r != 0 {
				return r
			}
		}
		return 0
	}
}

// KeysEqual returns a function reporting whether the key columns akeys
// of row i of a equal the key columns bkeys of row j of b, pairwise
// under Compare, reading the typed value slices directly. A NULL key
// equals nothing, per SQL join semantics.
func KeysEqual(a *Batch, akeys []int, b *Batch, bkeys []int) func(i, j int) bool {
	type keyEq struct {
		cmp    func(i, j int) int
		an, bn *Bitmap
	}
	eqs := make([]keyEq, len(akeys))
	for k := range akeys {
		ac, bc := a.Cols[akeys[k]], b.Cols[bkeys[k]]
		eqs[k] = keyEq{cmp: keyComparator(ac, bc, false)}
		if nb := NullsOf(ac); nb.Any() {
			eqs[k].an = nb
		}
		if nb := NullsOf(bc); nb.Any() {
			eqs[k].bn = nb
		}
	}
	return func(i, j int) bool {
		for _, e := range eqs {
			if e.an.Get(i) || e.bn.Get(j) || e.cmp(i, j) != 0 {
				return false
			}
		}
		return true
	}
}

func keyComparator(a, b Column, desc bool) func(i, j int) int {
	switch ac := a.(type) {
	case *Int64Column:
		if bc, ok := b.(*Int64Column); ok {
			return orderedComparator(ac.vals, bc.vals, ac.nulls, bc.nulls, desc)
		}
	case *Float64Column:
		if bc, ok := b.(*Float64Column); ok {
			return orderedComparator(ac.vals, bc.vals, ac.nulls, bc.nulls, desc)
		}
	case *StringColumn:
		if bc, ok := b.(*StringColumn); ok {
			return orderedComparator(ac.vals, bc.vals, ac.nulls, bc.nulls, desc)
		}
	case *BoolColumn:
		if bc, ok := b.(*BoolColumn); ok {
			return orderedComparator(boolBytes(ac.vals), boolBytes(bc.vals), ac.nulls, bc.nulls, desc)
		}
	}
	return func(i, j int) int {
		if desc {
			return Compare(b.Value(j), a.Value(i))
		}
		return Compare(a.Value(i), b.Value(j))
	}
}

// orderedComparator compares a[i] with b[j]. cmp.Compare already orders
// floats the way Compare does (NaN lowest, NaN equal to NaN, -0 equal
// to +0); the null bitmaps are consulted only when either side has one.
func orderedComparator[T cmp.Ordered](a, b []T, an, bn *Bitmap, desc bool) func(i, j int) int {
	if !an.Any() && !bn.Any() {
		if desc {
			return func(i, j int) int { return cmp.Compare(b[j], a[i]) }
		}
		return func(i, j int) int { return cmp.Compare(a[i], b[j]) }
	}
	sign := 1
	if desc {
		sign = -1
	}
	return func(i, j int) int {
		x, y := an.Get(i), bn.Get(j)
		switch {
		case x && y:
			return 0
		case x:
			return -sign
		case y:
			return sign
		}
		return sign * cmp.Compare(a[i], b[j])
	}
}

// boolBytes widens bools to 0/1 so they order like Compare's I field.
func boolBytes(v []bool) []uint8 {
	out := make([]uint8, len(v))
	for i, x := range v {
		if x {
			out[i] = 1
		}
	}
	return out
}

// Concat appends the rows of src to dst (schemas must be compatible).
// Columns of the same type append their value slices and null bitmaps
// whole; a column that needs coercion is first converted in full, so a
// failed cast leaves dst unchanged.
func Concat(dst, src *Batch) error {
	if len(dst.Cols) != len(src.Cols) {
		return fmt.Errorf("storage: concat arity mismatch %d vs %d", len(dst.Cols), len(src.Cols))
	}
	cols := make([]Column, len(src.Cols))
	for j, c := range src.Cols {
		cc, err := coerceColumn(c, dst.Cols[j].Type())
		if err != nil {
			return err
		}
		cols[j] = cc
	}
	for j, c := range cols {
		appendColumn(dst.Cols[j], c)
	}
	return nil
}

// coerceColumn returns c converted to type t: c itself when it already
// has that type, otherwise a new column built by coercing every value.
func coerceColumn(c Column, t Type) (Column, error) {
	if c.Type() == t {
		return c, nil
	}
	out := NewColumn(t, c.Len())
	for i := 0; i < c.Len(); i++ {
		if err := out.Append(c.Value(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendColumn appends the rows of src, which has dst's type, to dst.
// The four column types copy their value slice and null bitmap whole;
// any other implementation appends value by value.
func appendColumn(dst, src Column) {
	switch d := dst.(type) {
	case *Int64Column:
		if s, ok := src.(*Int64Column); ok {
			d.nulls = appendNulls(d.nulls, len(d.vals), s.nulls, len(s.vals))
			d.vals = append(d.vals, s.vals...)
			return
		}
	case *Float64Column:
		if s, ok := src.(*Float64Column); ok {
			d.nulls = appendNulls(d.nulls, len(d.vals), s.nulls, len(s.vals))
			d.vals = append(d.vals, s.vals...)
			return
		}
	case *StringColumn:
		if s, ok := src.(*StringColumn); ok {
			d.nulls = appendNulls(d.nulls, len(d.vals), s.nulls, len(s.vals))
			d.vals = append(d.vals, s.vals...)
			return
		}
	case *BoolColumn:
		if s, ok := src.(*BoolColumn); ok {
			d.nulls = appendNulls(d.nulls, len(d.vals), s.nulls, len(s.vals))
			d.vals = append(d.vals, s.vals...)
			return
		}
	}
	for i := 0; i < src.Len(); i++ {
		_ = dst.Append(src.Value(i)) // same type: Append cannot fail
	}
}

// appendNulls extends dst, the null bitmap of an n-row column, by the m
// rows whose bitmap is src. Like appending row by row, it leaves a nil
// bitmap nil while no appended row is NULL.
func appendNulls(dst *Bitmap, n int, src *Bitmap, m int) *Bitmap {
	srcNulls := src.Any()
	if dst == nil {
		if !srcNulls {
			return nil
		}
		dst = NewBitmap(n)
	}
	dst.Resize(n + m)
	if srcNulls {
		for i := 0; i < m; i++ {
			if src.Get(i) {
				dst.Set(n + i)
			}
		}
	}
	return dst
}
