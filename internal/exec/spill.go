package exec

import (
	"errors"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Memory accounting for out-of-core execution. Every blocking operator
// carries an optional *sched.MemBudget (the statement's grant from the
// engine pool) and reserves through a memTracker before it buffers. A
// denied reservation is the spill signal: Sort cuts a sorted run,
// HashJoin's build switches to the Grace partitioned path (its probe
// side streams and reserves nothing), HashAggregate narrows its fold
// window or — when group state is denied — turns hybrid, spilling the
// rows of groups that are not resident. No operator re-reads its input
// to change course. Operators with no spill path (Distinct's seen-set,
// NestedLoopJoin's build side) fail the statement with
// ErrOutOfMemoryBudget instead — a clean error, not an OOM.
//
// Each spilling operator keeps a small working floor regardless of the
// budget (one input batch, or one partition's build side at the deepest
// Grace level): an operator that cannot hold even that makes no
// progress, so the floor proceeds unreserved rather than deadlocking a
// statement that a slightly larger grant would run.

// ErrOutOfMemoryBudget fails a statement whose working set exceeds its
// memory grant in an operator that has no spill path.
var ErrOutOfMemoryBudget = errors.New("exec: out of memory budget")

// memTracker accumulates one operator's reservations against a budget
// so they can be returned in one Close. It is not goroutine-safe; each
// operator uses it from its own open/next path.
type memTracker struct {
	mem  *sched.MemBudget
	held int64
}

// reserve asks the budget for n more bytes; false means spill (or fail).
func (t *memTracker) reserve(n int64) bool {
	if !t.mem.Reserve(n) {
		return false
	}
	t.held += n
	return true
}

// release returns n of the held bytes (clamped to what is held).
func (t *memTracker) release(n int64) {
	if n > t.held {
		n = t.held
	}
	t.mem.Release(n)
	t.held -= n
}

// releaseAll returns every held byte.
func (t *memTracker) releaseAll() {
	t.mem.Release(t.held)
	t.held = 0
}

// spillParts is the fan-out of every hash-partitioned spill: a Grace
// join level (4 hash bits) and the aggregate's overflow runs.
const spillParts = 16

// spillPartitioner fans batches out to one lazily created run per
// partition. Each partition fills a pending batch with Concat and cuts
// a frame once it holds storage.BatchSize rows, so small per-batch
// slices still land on disk as full frames.
type spillPartitioner struct {
	fs     storage.SpillFS
	schema storage.Schema
	ws     [spillParts]*storage.RunWriter
	pend   [spillParts]*storage.Batch
}

// add appends b (which the partitioner may keep) to partition k.
func (p *spillPartitioner) add(k int, b *storage.Batch) error {
	if p.pend[k] == nil {
		p.pend[k] = b
	} else if err := storage.Concat(p.pend[k], b); err != nil {
		return err
	}
	if p.pend[k].Len() < storage.BatchSize {
		return nil
	}
	return p.flush(k)
}

func (p *spillPartitioner) flush(k int) error {
	b := p.pend[k]
	p.pend[k] = nil
	if b.Len() == 0 {
		return nil
	}
	if p.ws[k] == nil {
		w, err := storage.NewRunWriter(p.fs, p.schema)
		if err != nil {
			return err
		}
		p.ws[k] = w
	}
	return p.ws[k].Write(b)
}

func (p *spillPartitioner) abort() {
	for k, w := range p.ws {
		if w != nil {
			w.Abort()
			p.ws[k] = nil
		}
	}
}

// finish writes the pending batches and seals every partition's run
// (nil for a partition that received no rows), counting each in stats.
func (p *spillPartitioner) finish(stats *OpStats) ([spillParts]*storage.SpillRun, error) {
	var runs [spillParts]*storage.SpillRun
	for k := range p.pend {
		if p.pend[k] != nil {
			if err := p.flush(k); err != nil {
				p.abort()
				return runs, err
			}
		}
	}
	for k, w := range p.ws {
		if w == nil {
			continue
		}
		p.ws[k] = nil
		run, err := w.Finish()
		if err != nil {
			closeRuns(runs[:])
			p.abort()
			return [spillParts]*storage.SpillRun{}, err
		}
		stats.spilled(run)
		runs[k] = run
	}
	return runs, nil
}

// withIdx extends a schema with the trailing __idx column that carries
// each spilled row's global input index.
func withIdx(s storage.Schema) storage.Schema {
	cols := make([]storage.ColumnDef, 0, s.Len()+1)
	cols = append(cols, s.Cols...)
	cols = append(cols, storage.Col("__idx", storage.TypeInt64))
	return storage.NewSchema(cols...)
}

// tagRows gathers the given rows of b and appends each one's global
// input index (offset + row) as the __idx column of ext.
func tagRows(b *storage.Batch, rows []int, offset int64, ext storage.Schema) *storage.Batch {
	g := b.Gather(rows)
	idx := make([]int64, len(rows))
	for k, r := range rows {
		idx[k] = offset + int64(r)
	}
	g.Schema = ext
	g.Cols = append(g.Cols, storage.NewInt64Column(idx))
	return g
}
