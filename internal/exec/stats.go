package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// OpStats is the per-operator counter set every executor operator
// carries: output rows and batches, cumulative wall time spent inside
// the operator's Open and Next calls (inclusive of its children — a
// pull executor does child work inside the parent's Next), and the
// open/close timestamps. Counters are atomics because parallel plans
// run clones on worker goroutines; EXPLAIN ANALYZE reads them after the
// drain, SHOW STATS-style consumers may read them live.
//
// Every execution plans a fresh operator tree, so the counters always
// describe exactly one execution.
type OpStats struct {
	Rows    atomic.Int64
	Batches atomic.Int64
	// Nanos is cumulative wall time inside Open and Next, inclusive of
	// child pulls.
	Nanos    atomic.Int64
	OpenedNS atomic.Int64 // unix nanos of the latest Open
	ClosedNS atomic.Int64 // unix nanos of the latest Close
	// SpillBytes/SpillRuns count the operator's out-of-core activity:
	// bytes written to spill runs (including re-spills during merges)
	// and runs created. EXPLAIN ANALYZE renders them as spilled=.
	SpillBytes atomic.Int64
	SpillRuns  atomic.Int64

	// timed scopes wall-clock timing to this operator's plan: MarkTimed
	// sets it on every node of one tree, so one EXPLAIN ANALYZE no
	// longer makes concurrent statements pay clock reads. It is atomic
	// because the trace hook marks a streaming plan that is already
	// open, and on cancellation releases it while parallel fragment
	// goroutines are still closing their operators.
	timed atomic.Bool
}

// spilled credits one finished spill run to the operator's counters.
func (s *OpStats) spilled(run *storage.SpillRun) {
	if run == nil {
		return
	}
	s.SpillRuns.Add(1)
	s.SpillBytes.Add(run.Bytes())
}

// statsMode is the single flag the per-call hot path loads: -1 when
// counter recording is disabled (only to measure the counters' cost),
// 0 when counting rows/batches without wall-clock timing (the
// always-on default), and n > 0 while n timed executions (EXPLAIN
// ANALYZE) are in flight. Row and batch counters are cheap enough to leave
// always-on — two atomic adds per batch — but the time.Now pair around
// every Open/Next is not: on a sub-10µs point lookup it costs
// double-digit percent. So clock reads happen only while a timed
// execution is running; everything else keeps exact rows/batches and
// zero Nanos.
var statsMode atomic.Int32

// statsModeMu serializes the (rare) mode recomputation from the two
// independent inputs below.
var statsModeMu sync.Mutex
var statsOff bool   // SetStatsEnabled(false)
var statsTimers int // EnableTiming nesting depth

func recomputeStatsMode() {
	if statsOff {
		statsMode.Store(-1)
		return
	}
	statsMode.Store(int32(statsTimers))
}

// SetStatsEnabled toggles operator counter recording. Counters are on
// by default; its one user is the engine's TestCounterOverhead, which
// turns them off to hold their cost to the 2% budget.
func SetStatsEnabled(on bool) {
	statsModeMu.Lock()
	defer statsModeMu.Unlock()
	statsOff = !on
	recomputeStatsMode()
}

// MarkTimed turns on wall-clock operator timing for exactly the plan
// rooted at op, until the returned release func is called. Unlike
// EnableTiming it is scoped: concurrent statements keep the cheap
// count-only path. Marking an already-open plan is allowed (the trace
// hook does, for streaming SELECTs); timing simply starts with the
// next instrumented call on each operator.
func MarkTimed(op Operator) (release func()) {
	forEachStats(op, func(s *OpStats) { s.timed.Store(true) })
	var once sync.Once
	return func() {
		once.Do(func() {
			forEachStats(op, func(s *OpStats) { s.timed.Store(false) })
		})
	}
}

// forEachStats visits the OpStats of every operator in the tree rooted
// at op (a join build side shared by clones is visited once per clone;
// callers must be idempotent).
func forEachStats(op Operator, fn func(*OpStats)) {
	if st := StatsOf(op); st != nil {
		fn(st)
	}
	switch o := op.(type) {
	case *ctxOperator:
		forEachStats(o.input, fn)
	case *Filter:
		forEachStats(o.Input, fn)
	case *Project:
		forEachStats(o.Input, fn)
	case *Limit:
		forEachStats(o.Input, fn)
	case *Distinct:
		forEachStats(o.Input, fn)
	case *Sort:
		forEachStats(o.Input, fn)
	case *HashAggregate:
		forEachStats(o.Input, fn)
	case *HashJoin:
		forEachStats(o.Left, fn)
		forEachStats(o.Right, fn)
	case *NestedLoopJoin:
		forEachStats(o.Left, fn)
		forEachStats(o.Right, fn)
	case *UnionAll:
		for _, in := range o.Inputs {
			forEachStats(in, fn)
		}
	case *Gather:
		for _, f := range o.Fragments {
			forEachStats(f, fn)
		}
	}
}

// EnableTiming turns on wall-clock operator timing until the returned
// release func is called. Enabling is process-wide (concurrent
// untimed queries pay the clock cost for the duration — acceptable for
// a diagnostic), and nests: timing stays on until every caller
// releases. Prefer MarkTimed, which scopes the cost to one plan.
func EnableTiming() (release func()) {
	statsModeMu.Lock()
	statsTimers++
	recomputeStatsMode()
	statsModeMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			statsModeMu.Lock()
			statsTimers--
			recomputeStatsMode()
			statsModeMu.Unlock()
		})
	}
}

// Sentinel begin results for the two untimed modes; record branches on
// them instead of re-loading any flag.
const (
	statsCountOnly = -1 // count rows/batches, skip the clock
	statsSkip      = -2 // recording disabled
)

// begin marks the start of an instrumented call. It returns a start
// timestamp while a timed execution is in flight, else one of the
// sentinels above — a single atomic load on the common path.
func (s *OpStats) begin() int64 {
	switch m := statsMode.Load(); {
	case m < 0:
		return statsSkip
	case m == 0 && !s.timed.Load():
		return statsCountOnly
	}
	return time.Now().UnixNano()
}

// record closes out one Next call: rows/batches whenever a batch was
// produced, wall time only when begin captured a start.
func (s *OpStats) record(t0 int64, b *storage.Batch) {
	if t0 == statsSkip {
		return
	}
	if t0 >= 0 {
		s.Nanos.Add(time.Now().UnixNano() - t0)
	}
	if b != nil {
		s.Batches.Add(1)
		s.Rows.Add(int64(b.Len()))
	}
}

// opened closes out one Open call (blocking operators — sorts, builds,
// aggregations — do their real work there) and stamps the open time.
func (s *OpStats) opened(t0 int64) {
	if t0 < 0 {
		return
	}
	now := time.Now().UnixNano()
	s.Nanos.Add(now - t0)
	s.OpenedNS.Store(now)
}

// closed stamps the close time (timed executions only; an untimed
// query has no open stamp to pair it with).
func (s *OpStats) closed() {
	if statsMode.Load() <= 0 && !s.timed.Load() {
		return
	}
	s.ClosedNS.Store(time.Now().UnixNano())
}

// BusyTime returns the cumulative wall time recorded so far.
func (s *OpStats) BusyTime() time.Duration { return time.Duration(s.Nanos.Load()) }

// Instrumented is implemented by every operator that carries an
// OpStats counter set.
type Instrumented interface {
	OpStats() *OpStats
}

// StatsOf returns op's counters, or nil for an uninstrumented operator
// (none of the planner-emitted ones are).
func StatsOf(op Operator) *OpStats {
	if i, ok := op.(Instrumented); ok {
		return i.OpStats()
	}
	return nil
}
