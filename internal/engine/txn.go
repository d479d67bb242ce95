package engine

import (
	"context"
	"fmt"

	"repro/internal/storage"
	"repro/internal/trace"
)

// txnState tracks an open transaction: the session that owns it and
// the statements to WAL on commit. Undo lives in the MVCC manager: the
// first write to a table stages an O(columns) copy-on-write pre-image
// snapshot there, commit publishes the new table versions by
// discarding the overlay, and rollback restores the pre-images with a
// version swap. Readers other than the owner resolve staged tables to
// their pre-images, so an open transaction's writes are invisible to
// other sessions until commit. Transactions are opened only by a
// Session holding the exclusive write gate (see Session.begin).
type txnState struct {
	owner *Session // its reads see the staged writes
	log   []string // statements to WAL on commit
}

// begin opens a transaction owned by s. Nested transactions are not
// supported.
func (db *DB) begin(owner *Session) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txn != nil {
		return fmt.Errorf("engine: transaction already open")
	}
	if err := db.mvcc.Begin(); err != nil {
		return err
	}
	db.txn = &txnState{owner: owner}
	return nil
}

// InTransaction reports whether a transaction is open.
func (db *DB) InTransaction() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.txn != nil
}

// commit makes the transaction's changes durable (appending its
// statements to the WAL when persistence is enabled) and publishes the
// new table versions: from this point snapshots resolve the live
// tables again.
func (db *DB) commit() error {
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

// rollback undoes every change made since begin by restoring the MVCC
// pre-image snapshots — a version swap per touched table.
func (db *DB) rollback() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txn == nil {
		return fmt.Errorf("engine: no open transaction")
	}
	db.txn = nil
	return db.mvcc.Rollback()
}

// noteWrite stages the pre-images of the shards (nil: every shard) of a
// table about to be mutated. Callers must hold db.mu, and must call it
// before taking those shards' statement locks: freezing a shard waits
// on its statement lock.
func (db *DB) noteWrite(t *storage.Table, shards []int) {
	if db.txn == nil {
		return
	}
	db.mvcc.StageWriteShards(t, shards)
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
