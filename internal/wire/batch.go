package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// Column-wise batch serialization. Schemas and batches travel in
// separate frames (RowsHeader carries the schema once; each RowsBatch
// carries only row data), so a large result streams without repeating
// metadata. Integer columns ship under the better of RLE and delta
// encoding, strings under dictionary encoding, floats as plain words,
// booleans as RLE — exactly the storage encodings of the column store,
// with decode-side row-count caps so corrupt headers cannot force
// large allocations.

// AppendSchema appends a schema to the buffer.
func AppendSchema(b *Buffer, s storage.Schema) {
	b.PutUvarint(uint64(s.Len()))
	for _, c := range s.Cols {
		b.PutString(c.Name)
		flags := uint64(c.Type) << 1
		if c.NotNull {
			flags |= 1
		}
		b.PutUvarint(flags)
	}
}

// ReadSchema decodes a schema.
func ReadSchema(r *Reader) (storage.Schema, error) {
	nc := r.Uvarint()
	if r.Err != nil {
		return storage.Schema{}, r.Err
	}
	// Each column costs at least two bytes (empty name + flags).
	if nc > uint64(len(r.B)) {
		return storage.Schema{}, ErrCorrupt
	}
	cols := make([]storage.ColumnDef, nc)
	for i := range cols {
		name := r.String()
		flags := r.Uvarint()
		if r.Err != nil {
			return storage.Schema{}, r.Err
		}
		typ := storage.Type(flags >> 1)
		switch typ {
		case storage.TypeInt64, storage.TypeFloat64, storage.TypeString, storage.TypeBool:
		default:
			return storage.Schema{}, fmt.Errorf("wire: unknown column type %d", typ)
		}
		cols[i] = storage.ColumnDef{Name: name, Type: typ, NotNull: flags&1 != 0}
	}
	return storage.NewSchema(cols...), nil
}

// AppendBatch appends the rows of a batch column-wise. The schema is
// not repeated; decode with the schema from the RowsHeader.
func AppendBatch(b *Buffer, data *storage.Batch) error {
	n := data.Len()
	b.PutUvarint(uint64(n))
	for _, col := range data.Cols {
		// Null bitmap first (no words = no nulls).
		words := storage.NullsOf(col).Words()
		b.PutUvarint(uint64(len(words)))
		var wb [8]byte
		for _, word := range words {
			binary.LittleEndian.PutUint64(wb[:], word)
			b.B = append(b.B, wb[:]...)
		}
		switch c := col.(type) {
		case *storage.Int64Column:
			b.PutBytes(storage.EncodeInt64(c.Int64s()))
		case *storage.Float64Column:
			b.PutBytes(storage.EncodeFloat64Plain(c.Float64s()))
		case *storage.StringColumn:
			b.PutBytes(storage.EncodeStringDict(c.Strings()))
		case *storage.BoolColumn:
			ints := make([]int64, n)
			for i, v := range c.Bools() {
				if v {
					ints[i] = 1
				}
			}
			b.PutBytes(storage.EncodeInt64RLE(ints))
		default:
			return fmt.Errorf("wire: cannot encode column type %T", col)
		}
	}
	return nil
}

// ReadBatch decodes a batch serialized by AppendBatch against its
// schema.
func ReadBatch(r *Reader, schema storage.Schema) (*storage.Batch, error) {
	n := int(r.Uvarint())
	if r.Err != nil {
		return nil, r.Err
	}
	if n < 0 || n > MaxFrameSize {
		return nil, ErrCorrupt
	}
	batch := &storage.Batch{Schema: schema, Cols: make([]storage.Column, schema.Len())}
	for i, def := range schema.Cols {
		nw := r.Uvarint()
		if r.Err != nil {
			return nil, r.Err
		}
		// Divide instead of multiplying: nw*8 can wrap for a hostile
		// word count, sneaking past the bound into a huge allocation.
		if nw > uint64(len(r.B))/8 {
			return nil, ErrCorrupt
		}
		var nulls *storage.Bitmap
		if nw > 0 {
			words := make([]uint64, nw)
			for wi := range words {
				words[wi] = binary.LittleEndian.Uint64(r.B[wi*8:])
			}
			r.B = r.B[nw*8:]
			nulls = storage.BitmapFromWords(words, n)
		}
		payload := r.Bytes()
		if r.Err != nil {
			return nil, r.Err
		}
		col, err := decodeColumn(payload, def.Type, n)
		if err != nil {
			return nil, fmt.Errorf("wire: column %s: %w", def.Name, err)
		}
		if col.Len() != n {
			return nil, fmt.Errorf("wire: column %s has %d rows, expected %d", def.Name, col.Len(), n)
		}
		if nulls != nil {
			storage.SetNulls(col, nulls)
		}
		batch.Cols[i] = col
	}
	return batch, nil
}

func decodeColumn(payload []byte, typ storage.Type, n int) (storage.Column, error) {
	switch typ {
	case storage.TypeInt64:
		var vals []int64
		var err error
		if len(payload) > 0 && storage.Encoding(payload[0]) == storage.EncRLE {
			vals, err = storage.DecodeInt64RLEMax(payload, n)
		} else {
			vals, err = storage.DecodeInt64Delta(payload)
		}
		if err != nil {
			return nil, err
		}
		if vals == nil {
			vals = []int64{}
		}
		return storage.NewInt64Column(vals), nil
	case storage.TypeFloat64:
		vals, err := storage.DecodeFloat64Plain(payload)
		if err != nil {
			return nil, err
		}
		return storage.NewFloat64Column(vals), nil
	case storage.TypeString:
		vals, err := storage.DecodeStringDict(payload)
		if err != nil {
			return nil, err
		}
		return storage.NewStringColumn(vals), nil
	case storage.TypeBool:
		ints, err := storage.DecodeInt64RLEMax(payload, n)
		if err != nil {
			return nil, err
		}
		bools := make([]bool, len(ints))
		for i, v := range ints {
			bools[i] = v != 0
		}
		return storage.NewBoolColumn(bools), nil
	}
	return nil, fmt.Errorf("unknown type %d", typ)
}

// EqualBatches reports whether two batches are byte-identical: same
// schema, same row count, and Compare-equal values cell by cell (NULLs
// must match too). The differential harness uses it to assert the
// network path reproduces the in-process path exactly.
func EqualBatches(a, b *storage.Batch) bool {
	if a.Len() != b.Len() || len(a.Cols) != len(b.Cols) {
		return false
	}
	if !a.Schema.Equal(b.Schema) {
		return false
	}
	for j := range a.Cols {
		for i := 0; i < a.Len(); i++ {
			av, bv := a.Cols[j].Value(i), b.Cols[j].Value(i)
			if av.Null != bv.Null || !storage.Equal(av, bv) {
				return false
			}
		}
	}
	return true
}
