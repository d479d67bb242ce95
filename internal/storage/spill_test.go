package storage

import (
	"errors"
	"fmt"
	"testing"
)

func spillSchema() Schema {
	return NewSchema(
		Col("i", TypeInt64),
		Col("f", TypeFloat64),
		Col("s", TypeString),
		Col("b", TypeBool),
	)
}

func spillBatch(t *testing.T, start, rows int) *Batch {
	t.Helper()
	b := NewBatch(spillSchema())
	for r := 0; r < rows; r++ {
		i := start + r
		vals := []Value{
			Int64(int64(i)),
			Float64(float64(i) / 4),
			Str(fmt.Sprintf("row-%04d", i%17)),
			Bool(i%3 == 0),
		}
		if i%7 == 0 {
			vals[1] = Null(TypeFloat64)
		}
		if i%11 == 0 {
			vals[2] = Null(TypeString)
		}
		if err := b.AppendRow(vals...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func valuesEqual(a, b Value) bool {
	if a.Null != b.Null || a.Type != b.Type {
		return false
	}
	if a.Null {
		return true
	}
	return a.I == b.I && a.F == b.F && a.S == b.S
}

func requireSameRows(t *testing.T, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), want.Len())
	}
	for r := 0; r < want.Len(); r++ {
		gr, wr := got.Row(r), want.Row(r)
		for c := range wr {
			if !valuesEqual(gr[c], wr[c]) {
				t.Fatalf("row %d col %d = %v, want %v", r, c, gr[c], wr[c])
			}
		}
	}
}

func TestSpillBatchRoundTrip(t *testing.T) {
	want := spillBatch(t, 0, 100)
	got, err := DecodeSpillBatch(EncodeSpillBatch(want), want.Schema)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, got, want)
}

// TestSpillConstantColumnRoundTrip: a constant column RLE-encodes to a
// few bytes however many rows it holds, so its frames carry far more
// rows than bytes and must still decode, alone and through a run.
func TestSpillConstantColumnRoundTrip(t *testing.T) {
	for _, rows := range []int{100, BatchSize} {
		want := NewBatch(NewSchema(Col("k", TypeInt64)))
		for i := 0; i < rows; i++ {
			if err := want.AppendRow(Int64(7)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := DecodeSpillBatch(EncodeSpillBatch(want), want.Schema)
		if err != nil {
			t.Fatalf("%d rows: %v", rows, err)
		}
		requireSameRows(t, got, want)
		w, err := NewRunWriter(nil, want.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(want); err != nil {
			t.Fatal(err)
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got, err = run.ReadFrame(0)
		run.Close()
		if err != nil {
			t.Fatalf("%d rows through a run: %v", rows, err)
		}
		requireSameRows(t, got, want)
	}
}

func TestSpillRunRoundTrip(t *testing.T) {
	w, err := NewRunWriter(nil, spillSchema())
	if err != nil {
		t.Fatal(err)
	}
	want := NewBatch(spillSchema())
	for i := 0; i < 5; i++ {
		b := spillBatch(t, i*1000, 700) // odd sizes force rechunking
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := Concat(want, b); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.Rows() != int64(want.Len()) {
		t.Fatalf("run rows = %d, want %d", run.Rows(), want.Len())
	}
	if run.Bytes() <= 0 {
		t.Fatal("finished run reports no bytes")
	}
	got := NewBatch(spillSchema())
	rr := run.Reader()
	for {
		b, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() > BatchSize {
			t.Fatalf("frame holds %d rows, over the %d batch cap", b.Len(), BatchSize)
		}
		if err := Concat(got, b); err != nil {
			t.Fatal(err)
		}
	}
	requireSameRows(t, got, want)
}

// TestSpillRunReadWhileWriting: frames written by separate Write calls
// read back by index, out of order, from the sealed run.
func TestSpillRunReadWhileWriting(t *testing.T) {
	w, err := NewRunWriter(nil, spillSchema())
	if err != nil {
		t.Fatal(err)
	}
	first := spillBatch(t, 0, BatchSize)
	second := spillBatch(t, 5000, BatchSize)
	for _, b := range []*Batch{first, second} {
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.Frames() != 2 || run.Rows() != int64(2*BatchSize) {
		t.Fatalf("frames=%d rows=%d", run.Frames(), run.Rows())
	}
	for i, want := range []*Batch{second, first} {
		got, err := run.ReadFrame(1 - i)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, got, want)
	}
}

func TestMergeSpillRunsStable(t *testing.T) {
	schema := NewSchema(Col("k", TypeInt64), Col("src", TypeInt64))
	writeRun := func(src int64, keys []int64) *SpillRun {
		w, err := NewRunWriter(nil, schema)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBatch(schema)
		for _, k := range keys {
			if err := b.AppendRow(Int64(k), Int64(src)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Write(b); err != nil {
			t.Fatal(err)
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	a := writeRun(0, []int64{1, 3, 3, 7})
	b := writeRun(1, []int64{2, 3, 7, 9})
	defer a.Close()
	defer b.Close()
	m, err := MergeSpillRuns(nil, a, b, []SortKey{{Col: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	out := NewBatch(schema)
	rr := m.Reader()
	for {
		fb, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if fb == nil {
			break
		}
		if err := Concat(out, fb); err != nil {
			t.Fatal(err)
		}
	}
	wantK := []int64{1, 2, 3, 3, 3, 7, 7, 9}
	wantSrc := []int64{0, 1, 0, 0, 1, 0, 1, 1} // a wins ties
	if out.Len() != len(wantK) {
		t.Fatalf("merged %d rows", out.Len())
	}
	for i := range wantK {
		r := out.Row(i)
		if r[0].I != wantK[i] || r[1].I != wantSrc[i] {
			t.Fatalf("row %d = (%d,%d), want (%d,%d)", i, r[0].I, r[1].I, wantK[i], wantSrc[i])
		}
	}
}

func TestSpillTotalsAdvance(t *testing.T) {
	runs0, bytes0 := SpillTotals()
	w, err := NewRunWriter(nil, spillSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(spillBatch(t, 0, 64)); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	runs1, bytes1 := SpillTotals()
	if runs1 <= runs0 || bytes1 <= bytes0 {
		t.Fatalf("totals did not advance: runs %d→%d bytes %d→%d", runs0, runs1, bytes0, bytes1)
	}
}

// failSpillFS injects write failures after a byte budget, exercising the
// executor's spill error paths without touching a real disk fault.
type failSpillFS struct {
	allow int // bytes accepted before writes start failing
}

type failSpillFile struct {
	fs      *failSpillFS
	written int
}

var errDiskFull = errors.New("spill-test: disk full")

func (f *failSpillFile) Write(p []byte) (int, error) {
	if f.written+len(p) > f.fs.allow {
		return 0, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

func (f *failSpillFile) ReadAt(p []byte, off int64) (int, error) {
	return 0, errDiskFull
}
func (f *failSpillFile) Close() error { return nil }
func (f *failSpillFile) Name() string { return "fail-spill" }

func (fs *failSpillFS) CreateTemp() (SpillFile, error) {
	return &failSpillFile{fs: fs}, nil
}

func TestRunWriterSurfacesWriteFailure(t *testing.T) {
	w, err := NewRunWriter(&failSpillFS{allow: 0}, spillSchema())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Write(spillBatch(t, 0, BatchSize))
	if err == nil {
		// The chunker may buffer a partial batch; Finish must then fail.
		_, err = w.Finish()
	}
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("disk-full not surfaced: %v", err)
	}
	w.Abort()
}

func TestDecodeSpillBatchRejectsCorruption(t *testing.T) {
	want := spillBatch(t, 0, 50)
	enc := EncodeSpillBatch(want)
	if _, err := DecodeSpillBatch(enc[:len(enc)/2], want.Schema); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := DecodeSpillBatch(append(append([]byte{}, enc...), 0xff), want.Schema); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // absurd row count
	if _, err := DecodeSpillBatch(huge, want.Schema); err == nil {
		t.Fatal("absurd row count accepted")
	}
}
