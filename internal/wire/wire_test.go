package wire

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameQuery, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameDone, nil); err != nil {
		t.Fatal(err)
	}
	typ, p, err := ReadFrame(&buf)
	if err != nil || typ != FrameQuery || string(p) != "payload" {
		t.Fatalf("frame 1: typ=%x p=%q err=%v", typ, p, err)
	}
	typ, p, err = ReadFrame(&buf)
	if err != nil || typ != FrameDone || len(p) != 0 {
		t.Fatalf("frame 2: typ=%x p=%q err=%v", typ, p, err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	// A hostile 4 GiB length header must be rejected before allocation.
	hdr := []byte{FrameQuery, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []storage.Value{
		storage.Int64(-42),
		storage.Float64(3.5),
		storage.Str("hello 'quoted' world"),
		storage.Bool(true),
		storage.Bool(false),
		storage.Null(storage.TypeInt64),
		storage.Null(storage.TypeString),
	}
	var b Buffer
	for _, v := range vals {
		b.PutValue(v)
	}
	r := &Reader{B: b.B}
	for i, want := range vals {
		got := r.Value()
		if r.Err != nil {
			t.Fatalf("value %d: %v", i, r.Err)
		}
		if got.Type != want.Type || got.Null != want.Null || !storage.Equal(got, want) {
			t.Fatalf("value %d: got %+v want %+v", i, got, want)
		}
	}
	if !r.Done() {
		t.Fatal("trailing bytes after values")
	}
}

func makeTestBatch(t *testing.T) *storage.Batch {
	t.Helper()
	schema := storage.NewSchema(
		storage.NotNullCol("id", storage.TypeInt64),
		storage.Col("score", storage.TypeFloat64),
		storage.Col("name", storage.TypeString),
		storage.Col("flag", storage.TypeBool),
	)
	b := storage.NewBatch(schema)
	for i := 0; i < 300; i++ {
		name := "alpha"
		if i%3 == 0 {
			name = "beta"
		}
		vals := []storage.Value{
			storage.Int64(int64(i)),
			storage.Float64(float64(i) / 7),
			storage.Str(name),
			storage.Bool(i%2 == 0),
		}
		if i%11 == 0 {
			vals[1] = storage.Null(storage.TypeFloat64)
		}
		if i%13 == 0 {
			vals[2] = storage.Null(storage.TypeString)
		}
		if err := b.AppendRow(vals...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestBatchRoundTrip(t *testing.T) {
	data := makeTestBatch(t)
	var b Buffer
	AppendSchema(&b, data.Schema)
	if err := AppendBatch(&b, data); err != nil {
		t.Fatal(err)
	}
	r := &Reader{B: b.B}
	schema, err := ReadSchema(r)
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(data.Schema) {
		t.Fatalf("schema mismatch: %v vs %v", schema, data.Schema)
	}
	got, err := ReadBatch(r, schema)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("trailing bytes after batch")
	}
	if !EqualBatches(got, data) {
		t.Fatal("batch round trip not byte-identical")
	}
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	schema := storage.NewSchema(storage.Col("x", storage.TypeInt64))
	data := storage.NewBatch(schema)
	var b Buffer
	if err := AppendBatch(&b, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&Reader{B: b.B}, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty batch decoded to %d rows", got.Len())
	}
}

// TestBatchCorruptInputs feeds truncated/bit-flipped serializations to
// the decoder; it must error, never panic or over-allocate.
func TestBatchCorruptInputs(t *testing.T) {
	data := makeTestBatch(t)
	var b Buffer
	AppendSchema(&b, data.Schema)
	if err := AppendBatch(&b, data); err != nil {
		t.Fatal(err)
	}
	decode := func(p []byte) error {
		r := &Reader{B: p}
		schema, err := ReadSchema(r)
		if err != nil {
			return err
		}
		_, err = ReadBatch(r, schema)
		return err
	}
	if err := decode(b.B); err != nil {
		t.Fatalf("pristine input failed: %v", err)
	}
	for cut := 1; cut < len(b.B); cut += 37 {
		if err := decode(b.B[:cut]); err == nil {
			// A truncation can only be acceptable if it still decodes
			// to a full batch; that cannot happen for strict prefixes
			// of a batch with this many rows.
			t.Fatalf("truncation at %d silently accepted", cut)
		}
	}
	for i := 0; i < len(b.B); i += 53 {
		mut := append([]byte(nil), b.B...)
		mut[i] ^= 0x80
		_ = decode(mut) // must not panic; error or value change both fine
	}
}

func TestReaderCorruptValues(t *testing.T) {
	r := &Reader{B: []byte{0xff}}
	r.Value()
	if r.Err == nil {
		t.Fatal("bad value type accepted")
	}
	r = &Reader{B: []byte{0x05}}
	r.Uvarint()
	r.Uvarint()
	if r.Err == nil {
		t.Fatal("truncated uvarint accepted")
	}
}

// TestBatchHostileNullBitmap: a null-bitmap word count crafted so
// nw*8 overflows uint64 must be rejected as corrupt, not panic in
// makeslice.
func TestBatchHostileNullBitmap(t *testing.T) {
	schema := storage.NewSchema(storage.Col("x", storage.TypeInt64))
	var b Buffer
	b.PutUvarint(4)       // row count
	b.PutUvarint(1 << 61) // hostile word count: *8 wraps to 0
	if _, err := ReadBatch(&Reader{B: b.B}, schema); err == nil {
		t.Fatal("hostile null-bitmap word count accepted")
	}
}

// TestBatchShortNullBitmap: a frame whose null bitmap has fewer words
// than its rows need reads the missing words as "no nulls" instead of
// indexing past them.
func TestBatchShortNullBitmap(t *testing.T) {
	schema := storage.NewSchema(storage.Col("x", storage.TypeInt64))
	vals := make([]int64, 200)
	var b Buffer
	b.PutUvarint(200) // row count
	b.PutUvarint(1)   // one null word covers rows 0..63 only
	b.B = append(b.B, 0x01, 0, 0, 0, 0, 0, 0, 0)
	b.PutBytes(storage.EncodeInt64(vals))
	got, err := ReadBatch(&Reader{B: b.B}, schema)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.Cols[0].Value(0); !v.Null {
		t.Fatalf("row 0 = %v, want NULL", v)
	}
	if v := got.Cols[0].Value(150); v.Null || v.I != 0 {
		t.Fatalf("row 150 = %v, want 0", v)
	}
}

// TestBatchRowCountLimit: a frame claiming more rows than MaxFrameSize
// is rejected before any column is read.
func TestBatchRowCountLimit(t *testing.T) {
	schema := storage.NewSchema(storage.Col("x", storage.TypeInt64))
	var b Buffer
	b.PutUvarint(MaxFrameSize + 1)
	b.PutUvarint(0)
	b.PutBytes([]byte{byte(storage.EncRLE), 0xff, 0xff, 0xff, 0x1f, 0x00})
	if _, err := ReadBatch(&Reader{B: b.B}, schema); err == nil {
		t.Fatal("frame over MaxFrameSize rows accepted")
	}
}

// pinnedBatch is the fixed batch whose RowsBatch bytes are pinned in
// testdata/rows_batch.bin: delta and RLE integers, floats, strings and
// booleans, with NULLs in every type.
func pinnedBatch(t *testing.T) *storage.Batch {
	t.Helper()
	schema := storage.NewSchema(
		storage.NotNullCol("id", storage.TypeInt64),
		storage.Col("grp", storage.TypeInt64),
		storage.Col("score", storage.TypeFloat64),
		storage.Col("name", storage.TypeString),
		storage.Col("flag", storage.TypeBool),
	)
	names := []string{"ann", "bob", "cy"}
	b := storage.NewBatch(schema)
	for i := 0; i < 150; i++ {
		vals := []storage.Value{
			storage.Int64(int64(i * 3)),
			storage.Int64(int64(i / 50)),
			storage.Float64(float64(i) / 8),
			storage.Str(names[i%3]),
			storage.Bool(i%4 < 2),
		}
		if i%23 == 0 {
			vals[1] = storage.Null(storage.TypeInt64)
		}
		if i%7 == 3 {
			vals[2] = storage.Null(storage.TypeFloat64)
		}
		if i%11 == 4 {
			vals[3] = storage.Null(storage.TypeString)
		}
		if i%13 == 6 {
			vals[4] = storage.Null(storage.TypeBool)
		}
		if err := b.AppendRow(vals...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestBatchBytesPinned: the RowsBatch encoding of a fixed batch is
// byte-for-byte the protocol's recorded encoding, so clients built
// against earlier servers keep decoding it.
func TestBatchBytesPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/rows_batch.bin")
	if err != nil {
		t.Fatal(err)
	}
	data := pinnedBatch(t)
	var b Buffer
	if err := AppendBatch(&b, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.B, want) {
		t.Fatalf("RowsBatch bytes changed: %d bytes, pinned %d", len(b.B), len(want))
	}
	got, err := ReadBatch(&Reader{B: want}, data.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualBatches(got, data) {
		t.Fatal("pinned bytes do not decode to the pinned batch")
	}
}

func TestStatsTrailerRoundTrip(t *testing.T) {
	stats := []Stat{
		{Name: "supersteps", Value: 9},
		{Name: "dangling_messages", Value: 0},
		{Name: "delta", Value: -17},
	}
	var b Buffer
	b.PutU32(42) // statement id, as on a real Done frame
	b.PutStats(stats)
	r := &Reader{B: b.B}
	if id := r.U32(); id != 42 {
		t.Fatalf("stmt id: %d", id)
	}
	got := r.Stats()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(got) != len(stats) {
		t.Fatalf("got %d stats, want %d", len(got), len(stats))
	}
	for i := range stats {
		if got[i] != stats[i] {
			t.Fatalf("stat %d: got %+v want %+v", i, got[i], stats[i])
		}
	}

	// A bare Done payload (old server, or nothing to report) reads as a
	// nil trailer, not an error.
	var bare Buffer
	bare.PutU32(7)
	r = &Reader{B: bare.B}
	r.U32()
	if got := r.Stats(); got != nil || r.Err != nil {
		t.Fatalf("bare payload: stats=%v err=%v", got, r.Err)
	}

	// Empty stat lists encode to nothing: pre-trailer clients see the
	// exact old payload.
	var empty Buffer
	empty.PutU32(7)
	empty.PutStats(nil)
	if len(empty.B) != len(bare.B) {
		t.Fatalf("PutStats(nil) grew the payload: %d vs %d bytes", len(empty.B), len(bare.B))
	}

	// A hostile count larger than the remaining payload must be rejected
	// before allocation.
	var hostile Buffer
	hostile.PutU32(1)
	hostile.PutUvarint(1 << 40)
	r = &Reader{B: hostile.B}
	r.U32()
	if got := r.Stats(); got != nil || r.Err == nil {
		t.Fatalf("hostile count accepted: stats=%v err=%v", got, r.Err)
	}
}
