package wire

import (
	"fmt"

	"repro/internal/storage"
)

// Column-wise batch serialization. Schemas and batches travel in
// separate frames (RowsHeader carries the schema once; each RowsBatch
// carries only row data), so a large result streams without repeating
// metadata. A RowsBatch body is the storage column frame
// (storage.AppendBatch) — the frame spill runs and snapshots use too —
// so results ship compressed exactly as they rest on disk.

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

// AppendBatch appends the rows of a batch as one column frame. The
// schema is not repeated; decode with the schema from the RowsHeader.
func AppendBatch(b *Buffer, data *storage.Batch) error {
	var err error
	b.B, err = storage.AppendBatch(b.B, data)
	return err
}

// ReadBatch decodes a batch serialized by AppendBatch against its
// schema. A frame cannot carry more than MaxFrameSize rows.
func ReadBatch(r *Reader, schema storage.Schema) (*storage.Batch, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	batch, rest, err := storage.DecodeBatch(r.B, schema, MaxFrameSize)
	if err != nil {
		r.Err = fmt.Errorf("wire: %w", err)
		return nil, r.Err
	}
	r.B = rest
	return batch, nil
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
