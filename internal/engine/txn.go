package engine

import (
	"context"
	"fmt"

	"repro/internal/storage"
	"repro/internal/trace"
)

// txnState tracks the statements of an open transaction for WAL
// replay. Undo lives in the MVCC manager now: the first write to a
// table stages an O(columns) copy-on-write pre-image snapshot there
// (replacing the old deep-copy undo clones), commit publishes the new
// table versions by discarding the overlay, and rollback restores the
// pre-images with a version swap. Readers resolve staged tables to
// their pre-images, so an open transaction's writes are invisible to
// other sessions until commit.
type txnState struct {
	log []string // statements to WAL on commit
}

// Begin starts a DB-level transaction (the embedded single-caller
// API: DB-level reads see its uncommitted state). Nested transactions
// are not supported.
func (db *DB) Begin() error { return db.begin(false) }

// beginSession starts a transaction owned by a Session: only that
// session's reads see the staged writes; every other reader keeps the
// committed versions.
func (db *DB) beginSession() error { return db.begin(true) }

func (db *DB) begin(sessionOwned bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txn != nil {
		return fmt.Errorf("engine: transaction already open")
	}
	if err := db.mvcc.Begin(); err != nil {
		return err
	}
	db.txn = &txnState{}
	db.txnSessionOwned = sessionOwned
	return nil
}

// InTransaction reports whether a transaction is open.
func (db *DB) InTransaction() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.txn != nil
}

// Commit makes the transaction's changes durable (appending its
// statements to the WAL when persistence is enabled) and publishes the
// new table versions: from this point snapshots resolve the live
// tables again.
func (db *DB) Commit() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txn == nil {
		return fmt.Errorf("engine: no open transaction")
	}
	if db.wal != nil {
		for _, stmt := range db.txn.log {
			if err := db.wal.append(stmt); err != nil {
				return fmt.Errorf("engine: commit: %w", err)
			}
		}
	}
	db.txn = nil
	return db.mvcc.Commit()
}

// Rollback undoes every change made since Begin by restoring the MVCC
// pre-image snapshots — a version swap per touched table.
func (db *DB) Rollback() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txn == nil {
		return fmt.Errorf("engine: no open transaction")
	}
	db.txn = nil
	return db.mvcc.Rollback()
}

// noteWrite stages a pre-image for a table about to be mutated.
// Callers must hold db.mu.
func (db *DB) noteWrite(t *storage.Table) {
	if db.txn == nil {
		return
	}
	db.mvcc.StageWrite(t)
}

// noteCreate records a table created during the transaction.
func (db *DB) noteCreate(name string) {
	if db.txn == nil {
		return
	}
	db.mvcc.StageCreate(name)
}

// noteDrop records a dropped table for potential restore.
func (db *DB) noteDrop(t *storage.Table) {
	if db.txn == nil {
		return
	}
	db.mvcc.StageDrop(t)
}

// logStatement routes a successfully executed statement either into the
// transaction's pending log or straight to the WAL. Callers must hold
// db.mu. A traced statement (collector in ctx) gets a "wal" span
// covering the group-commit append — the durability wait a client
// experiences on an auto-commit write. A WAL failure fails the
// statement: it is applied in memory but not durable, so it must not be
// acknowledged, and the poisoned log refuses every later write.
func (db *DB) logStatement(ctx context.Context, text string) error {
	if db.txn != nil {
		db.txn.log = append(db.txn.log, text)
		return nil
	}
	if db.wal == nil {
		return nil
	}
	end := trace.FromContext(ctx).Begin("wal")
	err := db.wal.append(text)
	end("group-commit append+fsync")
	if err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	return nil
}
