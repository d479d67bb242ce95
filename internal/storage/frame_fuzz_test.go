package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzDecodeBatch drives the column-frame decoder every serialized
// batch goes through (wire RowsBatch bodies, spill frames, snapshot
// table bodies) with arbitrary bytes under an arbitrary schema. It must
// never panic, never return more than maxRows rows, and whatever it
// accepts must round-trip exactly: re-encoding and decoding gives the
// same rows, and re-encoding that gives the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	wireFrame, err := os.ReadFile("../wire/testdata/rows_batch.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wireFrame, []byte{0, 0, 1, 2, 3})
	seed := NewBatch(spillSchema())
	for i := 0; i < 10; i++ {
		_ = seed.AppendRow(Int64(int64(i)), Float64(float64(i)), Str("abc"), Bool(i%2 == 0))
	}
	_ = seed.AppendRow(Null(TypeInt64), Null(TypeFloat64), Null(TypeString), Null(TypeBool))
	f.Add(EncodeSpillBatch(seed), []byte{0, 1, 2, 3})
	f.Add(snapshotTableBody(f), []byte{0, 0, 1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, []byte{}) // absurd row count
	f.Fuzz(func(t *testing.T, data, types []byte) {
		if len(types) > 8 {
			types = types[:8]
		}
		cols := make([]ColumnDef, len(types))
		kinds := []Type{TypeInt64, TypeFloat64, TypeString, TypeBool}
		for i, b := range types {
			cols[i] = Col(string(rune('a'+i)), kinds[int(b)%len(kinds)])
		}
		schema := NewSchema(cols...)
		const maxRows = 1 << 16
		b, rest, err := DecodeBatch(data, schema, maxRows)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest %d bytes of a %d-byte input", len(rest), len(data))
		}
		for _, c := range b.Cols {
			if c.Len() != b.Len() || c.Len() > maxRows {
				t.Fatalf("column of %d rows in a %d-row frame (max %d)", c.Len(), b.Len(), maxRows)
			}
		}
		enc, err := AppendBatch(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		rt, rest, err := DecodeBatch(enc, schema, maxRows)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-decode: err=%v, %d trailing bytes", err, len(rest))
		}
		requireSameRows(t, rt, b)
		again, err := AppendBatch(nil, rt)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encode is not a fixed point: err=%v", err)
		}
	})
}

// snapshotTableBody returns the column frame of the sharded table in
// the V2 snapshot fixture. The fixture holds two tables, "empty" then
// "people"; each is a name, a schema, the shard count and key, then the
// frame.
func snapshotTableBody(f *testing.F) []byte {
	data, err := os.ReadFile("../engine/testdata/snapshot_v2.vxc")
	if err != nil {
		f.Fatal(err)
	}
	p := data[4:] // magic
	uvarint := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			f.Fatal("snapshot fixture: bad uvarint")
		}
		p = p[n:]
		return v
	}
	uvarint() // table count
	header := func() {
		p = p[uvarint():] // name
		for nc := uvarint(); nc > 0; nc-- {
			p = p[uvarint():] // column name
			uvarint()         // type and NOT NULL flags
		}
		uvarint() // shard count
		uvarint() // shard key + 1
	}
	header()
	empty := NewSchema(Col("k", TypeInt64), Col("v", TypeString), Col("f", TypeFloat64), Col("b", TypeBool))
	if _, p, err = DecodeBatch(p, empty, 0); err != nil {
		f.Fatal(err)
	}
	header()
	return p
}
