package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/wire"
)

// snapshotFixtureScript builds the database recorded in
// testdata/snapshot_v2.vxc: a 4-shard table with NULLs in all four
// column types, and an empty table.
func snapshotFixtureScript() []string {
	names := []string{"ann", "bob", "cy"}
	var rows []string
	for i := 0; i < 200; i++ {
		grp := fmt.Sprint(i / 50)
		if i%23 == 0 {
			grp = "NULL"
		}
		score := fmt.Sprintf("%d.25", i)
		if i%7 == 3 {
			score = "NULL"
		}
		name := "'" + names[i%3] + "'"
		if i%11 == 4 {
			name = "NULL"
		}
		active := "FALSE"
		if i%4 < 2 {
			active = "TRUE"
		}
		if i%13 == 6 {
			active = "NULL"
		}
		rows = append(rows, fmt.Sprintf("(%d, %s, %s, %s, %s)", i*3, grp, score, name, active))
	}
	return []string{
		"CREATE TABLE people (id INTEGER NOT NULL, grp INTEGER, score DOUBLE, name VARCHAR, active BOOLEAN) PARTITION BY HASH(id) SHARDS 4",
		"CREATE TABLE empty (k INTEGER, v VARCHAR, f DOUBLE, b BOOLEAN)",
		"INSERT INTO people VALUES " + strings.Join(rows, ", "),
	}
}

// openSnapshot opens a fresh database directory holding only the given
// snapshot bytes.
func openSnapshot(t *testing.T, snapshot []byte) (*DB, string, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	return db, dir, err
}

// requireSameTables asserts got holds exactly want's tables: same
// schemas, partitioning and rows in scan order, NULLs included.
func requireSameTables(t *testing.T, got, want *DB) {
	t.Helper()
	if g, w := got.cat.Names(), want.cat.Names(); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("tables %v, want %v", g, w)
	}
	for _, name := range want.cat.Names() {
		gt, err := got.cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := want.cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if gt.NumShards() != wt.NumShards() || gt.ShardKey() != wt.ShardKey() {
			t.Fatalf("%s: %d shards keyed on %d, want %d keyed on %d",
				name, gt.NumShards(), gt.ShardKey(), wt.NumShards(), wt.ShardKey())
		}
		if !wire.EqualBatches(gt.Data(), wt.Data()) {
			t.Fatalf("%s: rows differ from the script's", name)
		}
	}
}

// TestSnapshotFixtureLoads: a V2 snapshot written by an earlier build
// loads into the tables its script creates, and checkpointing them
// again writes the same body under the V3 magic, followed by the
// CRC-32C of every byte before it.
func TestSnapshotFixtureLoads(t *testing.T) {
	fixture, err := os.ReadFile("testdata/snapshot_v2.vxc")
	if err != nil {
		t.Fatal(err)
	}
	want := New()
	mustExec(t, want, snapshotFixtureScript()...)
	db, dir, err := openSnapshot(t, fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	requireSameTables(t, db, want)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	want3 := binary.LittleEndian.AppendUint32(nil, snapshotMagicV3)
	want3 = append(want3, fixture[4:]...)
	want3 = binary.LittleEndian.AppendUint32(want3, crc32.Checksum(want3, crc32.MakeTable(crc32.Castagnoli)))
	if !bytes.Equal(again, want3) {
		t.Fatalf("re-checkpointed snapshot is not the fixture under V3 with its trailer (%d vs %d bytes)", len(again), len(want3))
	}
}

// TestSnapshotAnyFlippedByteFailsOpen: with the checksum trailer, no
// single corrupted byte of a snapshot — magic, body or trailer — opens.
func TestSnapshotAnyFlippedByteFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db,
		"CREATE TABLE s (id INTEGER NOT NULL, name VARCHAR, score DOUBLE, ok BOOLEAN) PARTITION BY HASH(id) SHARDS 2",
		"INSERT INTO s VALUES (1, 'a', 0.5, TRUE), (2, NULL, 2.25, NULL), (3, 'c', NULL, FALSE)",
	)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if reopened, _, err := openSnapshot(t, snap); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	} else {
		reopened.Close()
	}
	for off := range snap {
		bad := bytes.Clone(snap)
		bad[off] ^= 0xFF
		if db, _, err := openSnapshot(t, bad); err == nil {
			db.Close()
			t.Errorf("snapshot with byte %d of %d flipped opened", off, len(snap))
		}
	}
}

// TestSnapshotV1Loads: a pre-sharding V1 snapshot (no partition
// metadata) still loads, every table single-shard.
func TestSnapshotV1Loads(t *testing.T) {
	want := New()
	mustExec(t, want,
		"CREATE TABLE v (id INTEGER NOT NULL, name VARCHAR, score DOUBLE, ok BOOLEAN)",
		"INSERT INTO v VALUES (1, 'a', 0.5, TRUE), (2, NULL, NULL, NULL), (3, 'c', 1.5, FALSE)",
	)
	var b wire.Buffer
	b.B = binary.LittleEndian.AppendUint32(b.B, snapshotMagicV1)
	b.PutUvarint(1)
	tab, err := want.cat.Get("v")
	if err != nil {
		t.Fatal(err)
	}
	b.PutString("v")
	wire.AppendSchema(&b, tab.Schema())
	if b.B, err = storage.AppendBatch(b.B, tab.Data()); err != nil {
		t.Fatal(err)
	}
	db, _, err := openSnapshot(t, b.B)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	requireSameTables(t, db, want)
}

// TestOpenRejectsCorruptSnapshot: lengths in a snapshot are checked
// against the file before anything is allocated, so a hostile name
// length or null-word count fails Open cleanly instead of panicking or
// exhausting memory.
func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	header := func(name string) *wire.Buffer {
		var b wire.Buffer
		b.B = binary.LittleEndian.AppendUint32(b.B, snapshotMagicV2)
		b.PutUvarint(1) // one table
		b.PutString(name)
		return &b
	}
	hugeName := header("")
	hugeName.B = hugeName.B[:len(hugeName.B)-1]
	hugeName.PutUvarint(1 << 62) // name length
	hugeName.B = append(hugeName.B, "tbl"...)

	hugeNulls := header("t")
	wire.AppendSchema(hugeNulls, storage.NewSchema(storage.Col("x", storage.TypeInt64)))
	hugeNulls.PutUvarint(1)       // shards
	hugeNulls.PutUvarint(0)       // no shard key
	hugeNulls.PutUvarint(4)       // rows
	hugeNulls.PutUvarint(1 << 60) // null words
	hugeNulls.B = append(hugeNulls.B, make([]byte, 16)...)

	for name, snap := range map[string][]byte{"name length": hugeName.B, "null words": hugeNulls.B} {
		db, _, err := openSnapshot(t, snap)
		if err == nil {
			db.Close()
			t.Errorf("%s: corrupt snapshot opened", name)
		}
	}
}

// TestEmptyCheckpointReopens: checkpointing a database with no tables
// writes the header and trailer, so the directory opens again.
func TestEmptyCheckpointReopens(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen after an empty checkpoint: %v", err)
	}
	db.Close()
}

// TestWALReplayIsNotObserved: recovery re-executes logged statements
// below the statement lifecycle, so a reopened engine has counted,
// observed and traced nothing.
func TestWALReplayIsNotObserved(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE w (x INTEGER)", "INSERT INTO w VALUES (1), (2)",
		"BEGIN", "INSERT INTO w VALUES (3)", "COMMIT")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, st := range db.Stats().Snapshot() {
		if strings.HasPrefix(st.Name, "engine.statement") && st.Value != 0 {
			t.Errorf("after replay %s = %d, want 0", st.Name, st.Value)
		}
	}
	if n := db.Tracer().RingLen(); n != 0 {
		t.Errorf("after replay the trace ring holds %d traces, want 0", n)
	}
	if v, err := db.QueryScalar("SELECT COUNT(*) FROM w"); err != nil || v.I != 3 {
		t.Fatalf("replayed rows: %v %v, want 3", v, err)
	}
}
