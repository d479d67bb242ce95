package engine

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/storage"
)

// Virtual system tables. Names starting with "vx$" resolve to
// materialized views over the engine's own state — the trace ring,
// active statements, the session registry — and are scanned by the
// normal executor, so they join, filter and sort like any table:
//
//	SELECT * FROM vx$traces ORDER BY total_ns DESC LIMIT 5
//
// Resolution happens in a TableSource wrapper in front of the MVCC
// snapshot: planning a vx$ name materializes the view into a batch at
// that moment (each scan sees fresh state), everything else falls
// through to the snapshot. Every execution plans fresh, so a prepared
// SELECT over a system table re-materializes it each time.

// sysTablePrefix marks virtual system tables.
const sysTablePrefix = "vx$"

func isSysTable(name string) bool {
	return strings.HasPrefix(strings.ToLower(name), sysTablePrefix)
}

// sysSource wraps a snapshot's table resolution with system-table
// interception.
type sysSource struct {
	db   *DB
	base plan.TableSource
}

func (s sysSource) Table(name string) (storage.TableData, error) {
	if isSysTable(name) {
		return s.db.sysTable(name)
	}
	return s.base.Table(name)
}

// sysTableData adapts a freshly materialized batch to storage.TableData.
type sysTableData struct {
	name    string
	version uint64
	data    *storage.Batch
}

func (t *sysTableData) Name() string                { return t.name }
func (t *sysTableData) Schema() storage.Schema      { return t.data.Schema }
func (t *sysTableData) NumRows() int                { return t.data.Len() }
func (t *sysTableData) Version() uint64             { return t.version }
func (t *sysTableData) SortKey() []int              { return nil }
func (t *sysTableData) Column(i int) storage.Column { return t.data.Cols[i] }
func (t *sysTableData) Data() *storage.Batch        { return t.data }

// sysTable materializes one system view by (lower-cased) name.
func (db *DB) sysTable(name string) (storage.TableData, error) {
	lower := strings.ToLower(name)
	var (
		b   *storage.Batch
		err error
	)
	switch lower {
	case "vx$traces":
		b, err = db.sysTraces()
	case "vx$trace_spans":
		b, err = db.sysTraceSpans()
	case "vx$active_statements":
		b, err = db.sysActiveStatements()
	case "vx$sessions":
		b, err = db.sysSessions()
	default:
		return nil, fmt.Errorf("engine: unknown system table %q", name)
	}
	if err != nil {
		return nil, err
	}
	return &sysTableData{name: lower, version: sysTableVersion.Add(1), data: b}, nil
}

// sysTraces lists the retained completed traces, newest first.
func (db *DB) sysTraces() (*storage.Batch, error) {
	b := storage.NewBatch(storage.NewSchema(
		storage.Col("trace_id", storage.TypeInt64),
		storage.Col("session_id", storage.TypeInt64),
		storage.Col("stmt", storage.TypeString),
		storage.Col("start_us", storage.TypeInt64),
		storage.Col("total_ns", storage.TypeInt64),
		storage.Col("span_count", storage.TypeInt64),
		storage.Col("dropped_spans", storage.TypeInt64),
		storage.Col("slow", storage.TypeBool),
	))
	for _, tc := range db.tracer.Recent() {
		if err := b.AppendRow(
			storage.Int64(int64(tc.ID())),
			storage.Int64(int64(tc.Session())),
			storage.Str(tc.Text()),
			storage.Int64(tc.StartTime().UnixMicro()),
			storage.Int64(tc.TotalNs()),
			storage.Int64(int64(tc.SpanCount())),
			storage.Int64(tc.DroppedSpans()),
			storage.Bool(tc.Slow()),
		); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// sysTraceSpans flattens every retained trace's spans, one row per
// span, joinable to vx$traces on trace_id.
func (db *DB) sysTraceSpans() (*storage.Batch, error) {
	b := storage.NewBatch(storage.NewSchema(
		storage.Col("trace_id", storage.TypeInt64),
		storage.Col("seq", storage.TypeInt64),
		storage.Col("depth", storage.TypeInt64),
		storage.Col("stage", storage.TypeString),
		storage.Col("start_us", storage.TypeInt64),
		storage.Col("dur_us", storage.TypeInt64),
		storage.Col("detail", storage.TypeString),
	))
	for _, tc := range db.tracer.Recent() {
		for i, sp := range tc.Spans() {
			if err := b.AppendRow(
				storage.Int64(int64(tc.ID())),
				storage.Int64(int64(i)),
				storage.Int64(int64(sp.Depth)),
				storage.Str(sp.Stage),
				storage.Int64(sp.StartNs/1e3),
				storage.Int64(sp.DurNs/1e3),
				storage.Str(sp.Detail),
			); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// sysActiveStatements lists statements executing right now.
func (db *DB) sysActiveStatements() (*storage.Batch, error) {
	b := storage.NewBatch(storage.NewSchema(
		storage.Col("trace_id", storage.TypeInt64),
		storage.Col("session_id", storage.TypeInt64),
		storage.Col("stmt", storage.TypeString),
		storage.Col("elapsed_us", storage.TypeInt64),
		storage.Col("span_count", storage.TypeInt64),
	))
	for _, tc := range db.tracer.Active() {
		if err := b.AppendRow(
			storage.Int64(int64(tc.ID())),
			storage.Int64(int64(tc.Session())),
			storage.Str(tc.Text()),
			storage.Int64(tc.ElapsedNs()/1e3),
			storage.Int64(int64(tc.SpanCount())),
		); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// sysSessions lists the live session registry.
func (db *DB) sysSessions() (*storage.Batch, error) {
	b := storage.NewBatch(storage.NewSchema(
		storage.Col("session_id", storage.TypeInt64),
		storage.Col("max_workers", storage.TypeInt64),
		storage.Col("parallelism", storage.TypeInt64),
		storage.Col("work_mem", storage.TypeInt64),
		storage.Col("in_txn", storage.TypeBool),
		storage.Col("statements", storage.TypeInt64),
		storage.Col("last_trace_id", storage.TypeInt64),
	))
	infos := db.sessionInfos()
	// Registry iteration order is map order; sort by id for stable output.
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j-1].id > infos[j].id; j-- {
			infos[j-1], infos[j] = infos[j], infos[j-1]
		}
	}
	for _, info := range infos {
		if err := b.AppendRow(
			storage.Int64(int64(info.id)),
			storage.Int64(info.maxWorkers),
			storage.Int64(info.workers.Load()),
			storage.Int64(info.workMem.Load()),
			storage.Bool(info.inTxn.Load()),
			storage.Int64(info.stmts.Load()),
			storage.Int64(int64(info.lastTrace.Load())),
		); err != nil {
			return nil, err
		}
	}
	return b, nil
}
