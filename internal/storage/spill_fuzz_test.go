package storage

import (
	"testing"
)

// Fuzzers for the spill-frame decoder, mirroring the segment-decoder
// fuzzers in encoding_fuzz_test.go: DecodeSpillBatch must never panic
// or decode more rows than its cap on arbitrary bytes, and must
// round-trip anything EncodeSpillBatch produces. A spill frame is the
// shared column frame (frame.go), so FuzzDecodeBatch covers the same
// decoder under random schemas and wire/snapshot seeds.

func fuzzSpillSchemas() []Schema {
	return []Schema{
		NewSchema(Col("i", TypeInt64)),
		NewSchema(Col("s", TypeString)),
		NewSchema(Col("i", TypeInt64), Col("f", TypeFloat64), Col("s", TypeString), Col("b", TypeBool)),
		NewSchema(), // zero columns: the row count alone must stay bounded
	}
}

func FuzzDecodeSpillBatch(f *testing.F) {
	seed := NewBatch(fuzzSpillSchemas()[2])
	for i := 0; i < 10; i++ {
		_ = seed.AppendRow(Int64(int64(i)), Float64(float64(i)), Str("abc"), Bool(i%2 == 0))
	}
	_ = seed.AppendRow(Null(TypeInt64), Null(TypeFloat64), Null(TypeString), Null(TypeBool))
	f.Add(EncodeSpillBatch(seed))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // absurd row count
	constant := NewBatch(fuzzSpillSchemas()[0])
	for i := 0; i < 1024; i++ {
		_ = constant.AppendRow(Int64(7))
	}
	f.Add(EncodeSpillBatch(constant)) // 1 024 rows in a few bytes of RLE
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, schema := range fuzzSpillSchemas() {
			b, err := DecodeSpillBatch(data, schema)
			if err != nil {
				continue
			}
			// Allocation-safety invariant: no frame decodes past the
			// decoder's row cap, and every column holds exactly the
			// frame's rows. Rows are not bounded by input bytes: a valid
			// RLE segment holds a constant column of any length in a few
			// bytes (the last seed).
			if b.Len() > maxRLEElements {
				t.Fatalf("decoded %d rows from %d bytes (cap %d)", b.Len(), len(data), maxRLEElements)
			}
			for c, col := range b.Cols {
				if col.Len() != b.Len() {
					t.Fatalf("column %d holds %d rows in a %d-row frame", c, col.Len(), b.Len())
				}
			}
			// Whatever decoded must re-encode and decode to the same rows.
			rt, err := DecodeSpillBatch(EncodeSpillBatch(b), schema)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if rt.Len() != b.Len() {
				t.Fatalf("round trip %d != %d rows", rt.Len(), b.Len())
			}
			for r := 0; r < b.Len(); r++ {
				br, rr := b.Row(r), rt.Row(r)
				for c := range br {
					if !valuesEqual(br[c], rr[c]) {
						t.Fatalf("row %d col %d: %v != %v", r, c, br[c], rr[c])
					}
				}
			}
		}
	})
}

func FuzzDecodeSpillBatchRandomSchemaBytes(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 1})
	f.Fuzz(func(t *testing.T, data, types []byte) {
		if len(types) > 8 {
			types = types[:8]
		}
		cols := make([]ColumnDef, len(types))
		kinds := []Type{TypeInt64, TypeFloat64, TypeString, TypeBool}
		for i, b := range types {
			cols[i] = Col(string(rune('a'+i)), kinds[int(b)%len(kinds)])
		}
		// Must not panic for any (bytes, schema) pairing.
		_, _ = DecodeSpillBatch(data, NewSchema(cols...))
	})
}
