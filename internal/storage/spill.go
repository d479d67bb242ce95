package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// Spill runs: the on-disk format for out-of-core execution. A run is a
// sequence of frames, one column frame (frame.go) per batch — the same
// frame wire batches and snapshot tables use, so the spill path reuses
// its capped, fuzz-tested decoder instead of growing a serialization
// surface of its own. Frame metadata (offsets, row counts) lives in
// memory with the run handle; the file itself is just concatenated
// uvarint-length-prefixed frames, read back with pread so several
// consumers can walk one run concurrently.

// SpillFile is what a run writes to and reads from. *os.File satisfies
// it; test filesystems return failing implementations to exercise the
// error paths.
type SpillFile interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Name() string
}

// SpillFS creates spill files. The default implementation hands out
// anonymous temp files; tests inject failures or count creations.
type SpillFS interface {
	CreateTemp() (SpillFile, error)
}

// OSSpillFS spills to temp files under Dir ("" = the system temp dir).
type OSSpillFS struct {
	Dir string
}

type osSpillFile struct {
	*os.File
}

// Close removes the file along with closing it: spill runs never
// outlive the query that wrote them.
func (f osSpillFile) Close() error {
	err := f.File.Close()
	if rmErr := os.Remove(f.File.Name()); err == nil {
		err = rmErr
	}
	return err
}

// CreateTemp implements SpillFS.
func (fs OSSpillFS) CreateTemp() (SpillFile, error) {
	f, err := os.CreateTemp(fs.Dir, "vx-spill-*.run")
	if err != nil {
		return nil, err
	}
	return osSpillFile{f}, nil
}

// DefaultSpillFS is where operators spill when the plan does not
// inject a filesystem of its own: the managed spill directory
// (SetSpillDir / SetSpillDiskCap), which accounts every live spill
// byte and enforces the optional disk-usage cap.
var DefaultSpillFS SpillFS = spillDir

// Engine-wide spill counters, surfaced as obs gauges / SHOW STATS.
var (
	spillRunsTotal  atomic.Int64
	spillBytesTotal atomic.Int64
)

// SpillTotals reports cumulative finished spill runs and bytes written
// since process start.
func SpillTotals() (runs, bytes int64) {
	return spillRunsTotal.Load(), spillBytesTotal.Load()
}

// BatchBytes estimates the in-memory footprint of a batch for memory
// accounting: fixed-width columns at machine width, strings at header
// plus payload. It deliberately overcounts a little (budget accounting
// should err toward spilling early, not OOMing late).
func BatchBytes(b *Batch) int64 {
	if b == nil {
		return 0
	}
	var total int64
	for _, c := range b.Cols {
		n := int64(c.Len())
		switch col := c.(type) {
		case *Int64Column:
			total += 8 * n
		case *Float64Column:
			total += 8 * n
		case *BoolColumn:
			total += n
		case *StringColumn:
			total += 16 * n
			for _, s := range col.vals {
				total += int64(len(s))
			}
		default:
			total += 16 * n
		}
		if nulls := NullsOf(c); nulls != nil {
			total += n / 8
		}
	}
	return total
}

// EncodeSpillBatch encodes one batch as a spill frame payload (without
// the outer length prefix the run writer adds).
func EncodeSpillBatch(b *Batch) []byte {
	buf, err := AppendBatch(nil, b)
	if err != nil {
		panic(err)
	}
	return buf
}

// DecodeSpillBatch decodes a spill frame payload against the schema it
// was written with.
func DecodeSpillBatch(data []byte, schema Schema) (*Batch, error) {
	return decodeSpillFrame(data, schema, maxRLEElements)
}

// decodeSpillFrame decodes one whole frame of at most maxRows rows.
func decodeSpillFrame(data []byte, schema Schema, maxRows int) (*Batch, error) {
	b, rest, err := DecodeBatch(data, schema, maxRows)
	if err == nil && len(rest) != 0 {
		err = errCorrupt
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// frameMeta locates one frame inside a run file.
type frameMeta struct {
	off  int64 // payload offset (past the length prefix)
	size int64 // payload length
	rows int   // rows in the frame
}

// RunWriter streams batches into a new spill run.
type RunWriter struct {
	f      SpillFile
	schema Schema
	off    int64
	frames []frameMeta
	rows   int64
	buf    []byte // reused frame encode buffer
}

// NewRunWriter opens a fresh run on fs for batches of the given schema.
func NewRunWriter(fs SpillFS, schema Schema) (*RunWriter, error) {
	if fs == nil {
		fs = DefaultSpillFS
	}
	f, err := fs.CreateTemp()
	if err != nil {
		return nil, fmt.Errorf("storage: create spill run: %w", err)
	}
	return &RunWriter{f: f, schema: schema}, nil
}

// Write appends one batch as a frame. Empty batches are skipped.
func (w *RunWriter) Write(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	payload, err := AppendBatch(w.buf[:0], b)
	if err != nil {
		return err
	}
	w.buf = payload
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	if _, err := w.f.Write(tmp[:n]); err != nil {
		return fmt.Errorf("storage: write spill run: %w", err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return fmt.Errorf("storage: write spill run: %w", err)
	}
	w.frames = append(w.frames, frameMeta{
		off:  w.off + int64(n),
		size: int64(len(payload)),
		rows: b.Len(),
	})
	w.off += int64(n) + int64(len(payload))
	w.rows += int64(b.Len())
	return nil
}

// Finish seals the run and returns its read handle. The writer must
// not be used afterwards.
func (w *RunWriter) Finish() (*SpillRun, error) {
	run := &SpillRun{f: w.f, schema: w.schema, frames: w.frames, rows: w.rows, bytes: w.off}
	spillRunsTotal.Add(1)
	spillBytesTotal.Add(w.off)
	return run, nil
}

// Abort discards a half-written run.
func (w *RunWriter) Abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// SpillRun is a sealed on-disk run: encoded frames plus in-memory
// metadata. Frames may be read in any order and from multiple
// goroutines (reads are positional).
type SpillRun struct {
	f      SpillFile
	schema Schema
	frames []frameMeta
	rows   int64
	bytes  int64
}

// Rows returns the total row count of the run.
func (r *SpillRun) Rows() int64 { return r.rows }

// Bytes returns the encoded size of the run on disk.
func (r *SpillRun) Bytes() int64 { return r.bytes }

// Frames returns the number of frames in the run.
func (r *SpillRun) Frames() int { return len(r.frames) }

// Schema returns the schema the run was written with.
func (r *SpillRun) Schema() Schema { return r.schema }

// ReadFrame decodes frame i, bounded by its recorded rows.
func (r *SpillRun) ReadFrame(i int) (*Batch, error) {
	fm := r.frames[i]
	buf := make([]byte, fm.size)
	if _, err := r.f.ReadAt(buf, fm.off); err != nil {
		return nil, fmt.Errorf("storage: read spill run: %w", err)
	}
	b, err := decodeSpillFrame(buf, r.schema, fm.rows)
	if err != nil {
		return nil, fmt.Errorf("storage: read spill run: %w", err)
	}
	return b, nil
}

// Close releases the run's file (removing it, for the OS filesystem).
func (r *SpillRun) Close() error {
	if r == nil || r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Reader returns a sequential frame iterator over the run.
func (r *SpillRun) Reader() *RunReader { return &RunReader{run: r} }

// RunReader iterates a run's frames in order.
type RunReader struct {
	run *SpillRun
	i   int
}

// Next returns the next frame, or (nil, nil) at end of run.
func (rr *RunReader) Next() (*Batch, error) {
	if rr.i >= rr.run.Frames() {
		return nil, nil
	}
	b, err := rr.run.ReadFrame(rr.i)
	if err != nil {
		return nil, err
	}
	rr.i++
	return b, nil
}

// runChunker accumulates merge output and writes exact BatchSize-row
// frames (plus one trailing partial), so external and in-memory sort
// paths emit identically-shaped batches downstream.
type runChunker struct {
	w       *RunWriter
	pending *Batch
}

func (c *runChunker) add(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	if c.pending != nil && c.pending.Len() > 0 {
		need := BatchSize - c.pending.Len()
		take := b.Len()
		if take > need {
			take = need
		}
		if err := Concat(c.pending, b.Slice(0, take)); err != nil {
			return err
		}
		b = b.Slice(take, b.Len())
		if c.pending.Len() == BatchSize {
			if err := c.w.Write(c.pending); err != nil {
				return err
			}
			c.pending = nil
		}
	}
	for b.Len() >= BatchSize {
		if err := c.w.Write(b.Slice(0, BatchSize)); err != nil {
			return err
		}
		b = b.Slice(BatchSize, b.Len())
	}
	if b.Len() > 0 {
		c.pending = b.Slice(0, b.Len())
	}
	return nil
}

func (c *runChunker) flush() error {
	if c.pending != nil && c.pending.Len() > 0 {
		if err := c.w.Write(c.pending); err != nil {
			return err
		}
		c.pending = nil
	}
	return nil
}

// MergeSpillRuns streams two sorted runs into one sorted run, holding
// only a few frames in memory. Stability matches MergeSortedBatches:
// on equal keys, rows of a precede rows of b — so a ladder of pairwise
// merges over runs cut from contiguous input regions reproduces the
// in-memory stable sort byte for byte.
//
// Each iteration finalizes whichever buffered frame ends lower — only
// its rows can have every interleaving partner in view. Rows of the
// other frame at or above the finalized frame's last row are withheld:
// a future row of the finalized side equal to them must still precede
// (a wins ties).
func MergeSpillRuns(fs SpillFS, a, b *SpillRun, keys []SortKey) (*SpillRun, error) {
	w, err := NewRunWriter(fs, a.schema)
	if err != nil {
		return nil, err
	}
	out, err := mergeSpillRuns(w, a, b, keys)
	if err != nil {
		w.Abort()
		return nil, err
	}
	return out, nil
}

func mergeSpillRuns(w *RunWriter, a, b *SpillRun, keys []SortKey) (*SpillRun, error) {
	ra, rb := a.Reader(), b.Reader()
	ch := runChunker{w: w}
	pa, err := ra.Next()
	if err != nil {
		return nil, err
	}
	pb, err := rb.Next()
	if err != nil {
		return nil, err
	}
	for pa != nil {
		if pb == nil || pb.Len() == 0 {
			if pb, err = rb.Next(); err != nil {
				return nil, err
			}
			if pb == nil {
				// b exhausted: the rest of a passes through.
				for pa != nil {
					if err := ch.add(pa); err != nil {
						return nil, err
					}
					if pa, err = ra.Next(); err != nil {
						return nil, err
					}
				}
				break
			}
			continue
		}
		lastA, lastB := pa.Len()-1, pb.Len()-1
		rows := rowComparator(pa, pb, keys)
		if rows(lastA, lastB) <= 0 {
			// a's frame ends lowest: every future b-row is at or above
			// b's frame last, hence above a's last, so the whole a-frame
			// finalizes now. Only the b-prefix strictly below a's last
			// row joins it — a future a-row equal to a withheld b-row
			// must still precede it.
			cut := searchBatch(pb, func(j int) bool {
				return rows(lastA, j) <= 0
			})
			if err := ch.add(MergeSortedBatches(pa, pb.Slice(0, cut), keys)); err != nil {
				return nil, err
			}
			pb = pb.Slice(cut, pb.Len())
			if pa, err = ra.Next(); err != nil {
				return nil, err
			}
		} else {
			// b's frame ends lower: it finalizes, taking the a-prefix at
			// or below its last row along (equal a-rows go now — a wins
			// ties, so they cannot trail the b-rows they tie with).
			cut := searchBatch(pa, func(i int) bool {
				return rows(i, lastB) > 0
			})
			if err := ch.add(MergeSortedBatches(pa.Slice(0, cut), pb, keys)); err != nil {
				return nil, err
			}
			pa = pa.Slice(cut, pa.Len())
			if pb, err = rb.Next(); err != nil {
				return nil, err
			}
		}
	}
	// a exhausted: flush the withheld tail of b.
	for {
		if pb != nil && pb.Len() > 0 {
			if err := ch.add(pb); err != nil {
				return nil, err
			}
		}
		if pb, err = rb.Next(); err != nil {
			return nil, err
		}
		if pb == nil {
			break
		}
	}
	if err := ch.flush(); err != nil {
		return nil, err
	}
	return w.Finish()
}

// searchBatch is sort.Search over batch rows without importing sort's
// closure allocation into the hot loop shape used above.
func searchBatch(b *Batch, pred func(int) bool) int {
	lo, hi := 0, b.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
