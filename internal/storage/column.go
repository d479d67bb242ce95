package storage

import "fmt"

// Column is a typed, null-aware vector of values. Operators in the
// executor work on whole columns (vectorized execution); the vertex
// workers read them value-at-a-time through Value(i).
type Column interface {
	// Type returns the element type of the column.
	Type() Type
	// Len returns the number of rows.
	Len() int
	// IsNull reports whether row i is NULL.
	IsNull(i int) bool
	// Value returns the value at row i.
	Value(i int) Value
	// Append appends a value, coercing it to the column type.
	Append(v Value) error
	// AppendNull appends a NULL row.
	AppendNull()
	// Slice returns a copy of rows [from, to).
	Slice(from, to int) Column
	// Gather returns a new column with the rows at the given indexes,
	// in order. It is the core primitive behind filters, joins and
	// hash partitioning.
	Gather(idx []int) Column
}

// GatherPad is Gather with padding: index -1 yields a NULL row. The
// hash join uses it to pad a left join's unmatched rows.
func GatherPad(c Column, idx []int) Column {
	hasPad := false
	for _, i := range idx {
		if i < 0 {
			hasPad = true
			break
		}
	}
	if !hasPad {
		return c.Gather(idx)
	}
	switch col := c.(type) {
	case *Int64Column:
		vals, nulls := gatherPad(col.vals, col.nulls, idx)
		return &Int64Column{vals: vals, nulls: nulls}
	case *Float64Column:
		vals, nulls := gatherPad(col.vals, col.nulls, idx)
		return &Float64Column{vals: vals, nulls: nulls}
	case *StringColumn:
		vals, nulls := gatherPad(col.vals, col.nulls, idx)
		return &StringColumn{vals: vals, nulls: nulls}
	case *BoolColumn:
		vals, nulls := gatherPad(col.vals, col.nulls, idx)
		return &BoolColumn{vals: vals, nulls: nulls}
	}
	out := NewColumn(c.Type(), len(idx))
	for _, i := range idx {
		if i < 0 {
			out.AppendNull()
			continue
		}
		_ = out.Append(c.Value(i))
	}
	return out
}

// gatherPad gathers typed values with -1 (and NULL source rows) as
// NULL, leaving the zero value underneath, as AppendNull does.
func gatherPad[T any](vals []T, nulls *Bitmap, idx []int) ([]T, *Bitmap) {
	out := make([]T, len(idx))
	bm := NewBitmap(len(idx))
	for k, i := range idx {
		if i < 0 || nulls.Get(i) {
			bm.Set(k)
			continue
		}
		out[k] = vals[i]
	}
	return out, bm
}

// SourceRow addresses one row of one source in a multi-source gather.
type SourceRow struct{ Src, Row int32 }

// GatherSources is Gather over several sources of type t: row k of the
// result is row picks[k].Row of srcs[picks[k].Src], NULLs included. It
// is the merge kernel behind K-way index merges, which interleave rows
// of several runs' frames into one output batch.
func GatherSources(t Type, srcs []Column, picks []SourceRow) Column {
	switch t {
	case TypeInt64:
		if vals, nulls, ok := gatherSources(srcs, picks, func(c Column) ([]int64, bool) {
			if col, ok := c.(*Int64Column); ok {
				return col.vals, true
			}
			return nil, false
		}); ok {
			return &Int64Column{vals: vals, nulls: nulls}
		}
	case TypeFloat64:
		if vals, nulls, ok := gatherSources(srcs, picks, func(c Column) ([]float64, bool) {
			if col, ok := c.(*Float64Column); ok {
				return col.vals, true
			}
			return nil, false
		}); ok {
			return &Float64Column{vals: vals, nulls: nulls}
		}
	case TypeString:
		if vals, nulls, ok := gatherSources(srcs, picks, func(c Column) ([]string, bool) {
			if col, ok := c.(*StringColumn); ok {
				return col.vals, true
			}
			return nil, false
		}); ok {
			return &StringColumn{vals: vals, nulls: nulls}
		}
	case TypeBool:
		if vals, nulls, ok := gatherSources(srcs, picks, func(c Column) ([]bool, bool) {
			if col, ok := c.(*BoolColumn); ok {
				return col.vals, true
			}
			return nil, false
		}); ok {
			return &BoolColumn{vals: vals, nulls: nulls}
		}
	}
	out := NewColumn(t, len(picks))
	for _, p := range picks {
		_ = out.Append(srcs[p.Src].Value(int(p.Row)))
	}
	return out
}

// gatherSources gathers typed values and the null bitmap; ok is false
// when a source is not of the expected column type.
func gatherSources[T any](srcs []Column, picks []SourceRow, typed func(Column) ([]T, bool)) ([]T, *Bitmap, bool) {
	vals := make([][]T, len(srcs))
	nulls := make([]*Bitmap, len(srcs))
	anyNull := false
	for s, c := range srcs {
		v, ok := typed(c)
		if !ok {
			return nil, nil, false
		}
		vals[s] = v
		if nb := NullsOf(c); nb.Any() {
			nulls[s] = nb
			anyNull = true
		}
	}
	out := make([]T, len(picks))
	for k, p := range picks {
		out[k] = vals[p.Src][p.Row]
	}
	if !anyNull {
		return out, nil, true
	}
	var bm *Bitmap
	for k, p := range picks {
		if nulls[p.Src].Get(int(p.Row)) {
			if bm == nil {
				bm = NewBitmap(len(picks))
			}
			bm.Set(k)
		}
	}
	return out, bm, true
}

// NullsOf exposes a column's null bitmap (nil when no row is NULL);
// used by the persistence layer.
func NullsOf(c Column) *Bitmap {
	switch col := c.(type) {
	case *Int64Column:
		return col.nulls
	case *Float64Column:
		return col.nulls
	case *StringColumn:
		return col.nulls
	case *BoolColumn:
		return col.nulls
	default:
		return nil
	}
}

// SetNulls installs a null bitmap on a column (persistence layer).
func SetNulls(c Column, b *Bitmap) {
	switch col := c.(type) {
	case *Int64Column:
		col.nulls = b
	case *Float64Column:
		col.nulls = b
	case *StringColumn:
		col.nulls = b
	case *BoolColumn:
		col.nulls = b
	}
}

// NewColumn allocates an empty column of type t with capacity hint n.
func NewColumn(t Type, n int) Column {
	switch t {
	case TypeInt64:
		return &Int64Column{vals: make([]int64, 0, n)}
	case TypeFloat64:
		return &Float64Column{vals: make([]float64, 0, n)}
	case TypeString:
		return &StringColumn{vals: make([]string, 0, n)}
	case TypeBool:
		return &BoolColumn{vals: make([]bool, 0, n)}
	default:
		panic(fmt.Sprintf("storage: unknown type %v", t))
	}
}

// Int64Column is a vector of INTEGER values.
type Int64Column struct {
	vals  []int64
	nulls *Bitmap
}

// NewInt64Column wraps the given values in a column (no copy).
func NewInt64Column(vals []int64) *Int64Column { return &Int64Column{vals: vals} }

// Int64s exposes the raw backing slice for vectorized operators.
func (c *Int64Column) Int64s() []int64 { return c.vals }

// Type implements Column.
func (c *Int64Column) Type() Type { return TypeInt64 }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *Int64Column) IsNull(i int) bool { return c.nulls.Get(i) }

// Value implements Column.
func (c *Int64Column) Value(i int) Value {
	if c.nulls.Get(i) {
		return Null(TypeInt64)
	}
	return Int64(c.vals[i])
}

// Append implements Column.
func (c *Int64Column) Append(v Value) error {
	cv, err := Coerce(v, TypeInt64)
	if err != nil {
		return err
	}
	if cv.Null {
		c.AppendNull()
		return nil
	}
	c.vals = append(c.vals, cv.I)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
	return nil
}

// AppendInt64 appends a raw non-null value without coercion.
func (c *Int64Column) AppendInt64(v int64) {
	c.vals = append(c.vals, v)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
}

// AppendNull implements Column.
func (c *Int64Column) AppendNull() {
	if c.nulls == nil {
		c.nulls = NewBitmap(len(c.vals))
	}
	c.vals = append(c.vals, 0)
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Slice implements Column.
func (c *Int64Column) Slice(from, to int) Column {
	out := &Int64Column{vals: append([]int64(nil), c.vals[from:to]...)}
	if c.nulls != nil {
		out.nulls = c.nulls.Slice(from, to)
	}
	return out
}

// Gather implements Column.
func (c *Int64Column) Gather(idx []int) Column {
	out := &Int64Column{vals: make([]int64, len(idx))}
	for j, i := range idx {
		out.vals[j] = c.vals[i]
	}
	if c.nulls != nil && c.nulls.Any() {
		out.nulls = NewBitmap(len(idx))
		for j, i := range idx {
			if c.nulls.Get(i) {
				out.nulls.Set(j)
			}
		}
	}
	return out
}

// Float64Column is a vector of DOUBLE values.
type Float64Column struct {
	vals  []float64
	nulls *Bitmap
}

// NewFloat64Column wraps the given values in a column (no copy).
func NewFloat64Column(vals []float64) *Float64Column { return &Float64Column{vals: vals} }

// Float64s exposes the raw backing slice for vectorized operators.
func (c *Float64Column) Float64s() []float64 { return c.vals }

// Type implements Column.
func (c *Float64Column) Type() Type { return TypeFloat64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *Float64Column) IsNull(i int) bool { return c.nulls.Get(i) }

// Value implements Column.
func (c *Float64Column) Value(i int) Value {
	if c.nulls.Get(i) {
		return Null(TypeFloat64)
	}
	return Float64(c.vals[i])
}

// Append implements Column.
func (c *Float64Column) Append(v Value) error {
	cv, err := Coerce(v, TypeFloat64)
	if err != nil {
		return err
	}
	if cv.Null {
		c.AppendNull()
		return nil
	}
	c.vals = append(c.vals, cv.F)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
	return nil
}

// AppendFloat64 appends a raw non-null value without coercion.
func (c *Float64Column) AppendFloat64(v float64) {
	c.vals = append(c.vals, v)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
}

// AppendNull implements Column.
func (c *Float64Column) AppendNull() {
	if c.nulls == nil {
		c.nulls = NewBitmap(len(c.vals))
	}
	c.vals = append(c.vals, 0)
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Slice implements Column.
func (c *Float64Column) Slice(from, to int) Column {
	out := &Float64Column{vals: append([]float64(nil), c.vals[from:to]...)}
	if c.nulls != nil {
		out.nulls = c.nulls.Slice(from, to)
	}
	return out
}

// Gather implements Column.
func (c *Float64Column) Gather(idx []int) Column {
	out := &Float64Column{vals: make([]float64, len(idx))}
	for j, i := range idx {
		out.vals[j] = c.vals[i]
	}
	if c.nulls != nil && c.nulls.Any() {
		out.nulls = NewBitmap(len(idx))
		for j, i := range idx {
			if c.nulls.Get(i) {
				out.nulls.Set(j)
			}
		}
	}
	return out
}

// StringColumn is a vector of VARCHAR values.
type StringColumn struct {
	vals  []string
	nulls *Bitmap
}

// NewStringColumn wraps the given values in a column (no copy).
func NewStringColumn(vals []string) *StringColumn { return &StringColumn{vals: vals} }

// Strings exposes the raw backing slice for vectorized operators.
func (c *StringColumn) Strings() []string { return c.vals }

// Type implements Column.
func (c *StringColumn) Type() Type { return TypeString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.nulls.Get(i) }

// Value implements Column.
func (c *StringColumn) Value(i int) Value {
	if c.nulls.Get(i) {
		return Null(TypeString)
	}
	return Str(c.vals[i])
}

// Append implements Column.
func (c *StringColumn) Append(v Value) error {
	cv, err := Coerce(v, TypeString)
	if err != nil {
		return err
	}
	if cv.Null {
		c.AppendNull()
		return nil
	}
	c.vals = append(c.vals, cv.S)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
	return nil
}

// AppendString appends a raw non-null value without coercion.
func (c *StringColumn) AppendString(v string) {
	c.vals = append(c.vals, v)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
}

// AppendNull implements Column.
func (c *StringColumn) AppendNull() {
	if c.nulls == nil {
		c.nulls = NewBitmap(len(c.vals))
	}
	c.vals = append(c.vals, "")
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Slice implements Column.
func (c *StringColumn) Slice(from, to int) Column {
	out := &StringColumn{vals: append([]string(nil), c.vals[from:to]...)}
	if c.nulls != nil {
		out.nulls = c.nulls.Slice(from, to)
	}
	return out
}

// Gather implements Column.
func (c *StringColumn) Gather(idx []int) Column {
	out := &StringColumn{vals: make([]string, len(idx))}
	for j, i := range idx {
		out.vals[j] = c.vals[i]
	}
	if c.nulls != nil && c.nulls.Any() {
		out.nulls = NewBitmap(len(idx))
		for j, i := range idx {
			if c.nulls.Get(i) {
				out.nulls.Set(j)
			}
		}
	}
	return out
}

// BoolColumn is a vector of BOOLEAN values.
type BoolColumn struct {
	vals  []bool
	nulls *Bitmap
}

// NewBoolColumn wraps the given values in a column (no copy).
func NewBoolColumn(vals []bool) *BoolColumn { return &BoolColumn{vals: vals} }

// Bools exposes the raw backing slice for vectorized operators.
func (c *BoolColumn) Bools() []bool { return c.vals }

// Type implements Column.
func (c *BoolColumn) Type() Type { return TypeBool }

// Len implements Column.
func (c *BoolColumn) Len() int { return len(c.vals) }

// IsNull implements Column.
func (c *BoolColumn) IsNull(i int) bool { return c.nulls.Get(i) }

// Value implements Column.
func (c *BoolColumn) Value(i int) Value {
	if c.nulls.Get(i) {
		return Null(TypeBool)
	}
	return Bool(c.vals[i])
}

// Append implements Column.
func (c *BoolColumn) Append(v Value) error {
	cv, err := Coerce(v, TypeBool)
	if err != nil {
		return err
	}
	if cv.Null {
		c.AppendNull()
		return nil
	}
	c.vals = append(c.vals, cv.I != 0)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
	return nil
}

// AppendBool appends a raw non-null value without coercion.
func (c *BoolColumn) AppendBool(v bool) {
	c.vals = append(c.vals, v)
	if c.nulls != nil {
		c.nulls.Append(false)
	}
}

// AppendNull implements Column.
func (c *BoolColumn) AppendNull() {
	if c.nulls == nil {
		c.nulls = NewBitmap(len(c.vals))
	}
	c.vals = append(c.vals, false)
	c.nulls.Resize(len(c.vals))
	c.nulls.Set(len(c.vals) - 1)
}

// Slice implements Column.
func (c *BoolColumn) Slice(from, to int) Column {
	out := &BoolColumn{vals: append([]bool(nil), c.vals[from:to]...)}
	if c.nulls != nil {
		out.nulls = c.nulls.Slice(from, to)
	}
	return out
}

// Gather implements Column.
func (c *BoolColumn) Gather(idx []int) Column {
	out := &BoolColumn{vals: make([]bool, len(idx))}
	for j, i := range idx {
		out.vals[j] = c.vals[i]
	}
	if c.nulls != nil && c.nulls.Any() {
		out.nulls = NewBitmap(len(idx))
		for j, i := range idx {
			if c.nulls.Get(i) {
				out.nulls.Set(j)
			}
		}
	}
	return out
}
