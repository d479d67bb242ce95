package engine

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Persistence: a full-database snapshot file (columnar: each table's
// rows are one storage column frame, the frame wire batches and spill
// runs use — delta/RLE for integers, dictionary for strings)
// plus a statement-granularity write-ahead log. Open loads the snapshot
// and replays the WAL; Checkpoint rewrites the snapshot and truncates
// the WAL. This is the engine-level durability story the paper cites as
// a reason to keep graphs in the RDBMS.

const (
	snapshotFile    = "snapshot.vxc"
	walFile         = "wal.sql"
	snapshotMagicV1 = uint32(0x56585831) // "VXX1": no partition metadata
	snapshotMagicV2 = uint32(0x56585832) // "VXX2": + per-table shard count and key
	snapshotMagicV3 = uint32(0x56585833) // "VXX3": V2 body + CRC-32C trailer
)

// castagnoli is the CRC-32C table of the snapshot trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Open returns a database persisted under dir, creating it if empty and
// recovering (snapshot + WAL replay) if files exist.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	db := New()
	db.dir = dir

	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		if err := db.loadSnapshot(snapPath); err != nil {
			return nil, fmt.Errorf("engine: recover snapshot: %w", err)
		}
	}
	walPath := filepath.Join(dir, walFile)
	if _, err := os.Stat(walPath); err == nil {
		if err := db.replayWAL(walPath); err != nil {
			return nil, fmt.Errorf("engine: replay wal: %w", err)
		}
	}
	w, err := newWALWriter(walPath)
	if err != nil {
		return nil, err
	}
	w.fsyncs = db.obs.Counter("wal.fsyncs")
	w.syncedRecords = db.obs.Counter("wal.synced_records")
	db.wal = w
	return db, nil
}

// Close flushes and closes the WAL (no-op for in-memory databases).
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		return db.wal.close()
	}
	return nil
}

// Checkpoint writes a full snapshot and truncates the WAL. Graph tables
// are filled outside the statement log, so they become durable only
// through a checkpoint.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.dir == "" {
		return fmt.Errorf("engine: checkpoint requires a persistent database (use Open)")
	}
	if db.txn != nil {
		return fmt.Errorf("engine: cannot checkpoint during a transaction")
	}
	tmp := filepath.Join(db.dir, snapshotFile+".tmp")
	if err := db.writeSnapshot(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, snapshotFile)); err != nil {
		return err
	}
	// The rename is durable only once the directory entry is: truncating
	// the WAL before that could lose both the old log and the new
	// snapshot in a crash.
	if err := syncDir(db.dir); err != nil {
		return err
	}
	return db.wal.truncate()
}

// syncDir fsyncs a directory so a rename inside it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func (db *DB) writeSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = db.encodeSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeSnapshot writes the magic, the table count, then per table its
// name, schema, partition metadata and rows as one column frame
// (storage.AppendBatch) — one write per table — and last the CRC-32C
// of every byte before it, little-endian.
func (db *DB) encodeSnapshot(w io.Writer) error {
	names := db.cat.Names()
	var b wire.Buffer
	var crc uint32
	b.B = binary.LittleEndian.AppendUint32(b.B, snapshotMagicV3)
	b.PutUvarint(uint64(len(names)))
	for _, name := range names {
		t, err := db.cat.Get(name)
		if err != nil {
			return err
		}
		b.PutString(t.Name())
		wire.AppendSchema(&b, t.Schema())
		// V2: partition metadata. keyCol is stored +1 so 0 means "none".
		b.PutUvarint(uint64(t.NumShards()))
		b.PutUvarint(uint64(t.ShardKey() + 1))
		if b.B, err = storage.AppendBatch(b.B, t.Data()); err != nil {
			return fmt.Errorf("table %s: %w", name, err)
		}
		crc = crc32.Update(crc, castagnoli, b.B)
		if _, err := w.Write(b.B); err != nil {
			return err
		}
		b.B = b.B[:0]
	}
	crc = crc32.Update(crc, castagnoli, b.B) // an empty catalog leaves the header here
	_, err := w.Write(binary.LittleEndian.AppendUint32(b.B, crc))
	return err
}

// maxTableRows bounds the row count a snapshot table may claim.
const maxTableRows = math.MaxInt32

func (db *DB) loadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < 4 {
		return fmt.Errorf("bad snapshot magic")
	}
	var version int
	switch binary.LittleEndian.Uint32(data) {
	case snapshotMagicV1:
		version = 1 // pre-sharding snapshot: every table single-shard
	case snapshotMagicV2:
		version = 2
	case snapshotMagicV3:
		version = 3
		n := len(data) - 4
		if n < 4 || crc32.Checksum(data[:n], castagnoli) != binary.LittleEndian.Uint32(data[n:]) {
			return fmt.Errorf("snapshot checksum mismatch")
		}
		data = data[:n]
	default:
		return fmt.Errorf("bad snapshot magic")
	}
	r := &wire.Reader{B: data[4:]}
	nt := r.Uvarint()
	for i := uint64(0); i < nt && r.Err == nil; i++ {
		if err := db.decodeTable(r, version); err != nil {
			return err
		}
	}
	if r.Err == nil && len(r.B) > 0 {
		return fmt.Errorf("snapshot: %d bytes after the last table", len(r.B))
	}
	return r.Err
}

func (db *DB) decodeTable(r *wire.Reader, version int) error {
	name := r.String()
	schema, err := wire.ReadSchema(r)
	if err != nil {
		return err
	}
	nShards, keyCol := 1, -1
	if version >= 2 {
		nShards, keyCol = int(r.Uvarint()), int(r.Uvarint())-1
		if r.Err != nil {
			return r.Err
		}
		if nShards < 1 || nShards > 1<<16 {
			return fmt.Errorf("table %s: bad shard count %d", name, nShards)
		}
		if keyCol < -1 || keyCol >= schema.Len() || (nShards > 1 && keyCol < 0) {
			return fmt.Errorf("table %s: bad partition column %d", name, keyCol)
		}
	}
	batch, rest, err := storage.DecodeBatch(r.B, schema, maxTableRows)
	if err != nil {
		return fmt.Errorf("table %s: %w", name, err)
	}
	r.B = rest
	// Replace re-partitions the concatenated rows by the same hash that
	// produced them, so the rebuilt table has the identical per-shard
	// layout (and therefore identical scan order) as before the save.
	t := storage.NewShardedTable(name, schema, keyCol, nShards)
	if err := t.Replace(batch); err != nil {
		return err
	}
	db.cat.Put(t)
	return nil
}

// --- WAL ---

// walWriter appends length-prefixed SQL statements to the log. It has
// its own mutex because sharded fast-path statements append while
// holding only the shared engine latch — concurrent appends must not
// interleave their length prefix and payload.
//
// Durability uses group commit: the record is written to the OS page
// cache under the lock (cheap), then one caller syncs the file on
// behalf of every record written so far while later arrivals wait for
// a sync generation covering theirs. Concurrent fast-path commits —
// the sharded write path lets several run at once — thereby amortize
// one fsync over a batch of statements instead of queueing a sync per
// statement behind the lock. A lone writer degenerates to write+sync,
// exactly the old behavior.
type walWriter struct {
	mu        sync.Mutex
	syncDone  *sync.Cond // broadcast when an in-flight sync finishes
	path      string
	f         *os.File
	writeGen  uint64 // generation of the latest appended record
	syncedGen uint64 // latest generation covered by a finished sync
	syncing   bool
	err       error // sticky: a failed write or sync poisons the log

	// Metrics (nil when the owning DB has no registry, e.g. in narrow
	// tests): fsync count and total records covered by those fsyncs.
	// synced_records / fsyncs is the average group-commit batch size.
	fsyncs        *obs.Counter
	syncedRecords *obs.Counter
}

func newWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &walWriter{path: path, f: f}
	w.syncDone = sync.NewCond(&w.mu)
	return w, nil
}

func (w *walWriter) append(stmt string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	// A failed write may leave a torn record; poison the log so no later
	// record lands after it, where replay would never reach it.
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(stmt)))
	if _, err := w.f.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.f.Write([]byte(stmt)); err != nil {
		w.err = err
		return err
	}
	w.writeGen++
	gen := w.writeGen
	for w.syncedGen < gen {
		if w.err != nil {
			return w.err
		}
		if w.syncing {
			w.syncDone.Wait()
			continue
		}
		// Become the syncer for everything appended so far. The lock is
		// released during the fsync, so more records land in the page
		// cache meanwhile; their writers wait for the next sync round.
		w.syncing = true
		target := w.writeGen
		w.mu.Unlock()
		err := w.f.Sync()
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.err = err
		} else {
			if w.fsyncs != nil {
				w.fsyncs.Inc()
				w.syncedRecords.Add(target - w.syncedGen)
			}
			if w.syncedGen < target {
				w.syncedGen = target
			}
		}
		w.syncDone.Broadcast()
	}
	return nil
}

func (w *walWriter) truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.syncDone.Wait()
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	f, err := os.Create(w.path)
	if err != nil {
		return err
	}
	w.f = f
	w.err = nil
	w.syncedGen = w.writeGen // fresh log: nothing pending
	return nil
}

func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.syncDone.Wait()
	}
	return w.f.Close()
}

// replayWAL re-executes logged statements against the recovered
// snapshot. A truncated trailing record (torn write) ends replay
// cleanly.
func (db *DB) replayWAL(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		n, err := binary.ReadUvarint(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return nil // torn length prefix: stop replay
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil // torn record: stop replay
		}
		// Each record runs below the statement lifecycle: recovery is
		// not a statement, so it is not counted, traced or gated. Logs
		// written by older versions may hold a SELECT, which has no
		// effect to replay.
		st, err := sql.Parse(string(buf))
		if _, isSelect := st.(*sql.SelectStmt); err == nil && !isSelect {
			_, err = db.execParsed(context.Background(), st, string(buf), nil, nil)
		}
		if err != nil {
			return fmt.Errorf("replaying %q: %w", string(buf), err)
		}
	}
}
