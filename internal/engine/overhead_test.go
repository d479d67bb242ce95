package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/storage"
)

// The standing instrumentation rule: with tracing sampled off, the
// always-on operator counters and the installed trace hooks each cost
// at most 2% on a prepared point lookup, the cheapest statement the
// engine runs.
const (
	maxOverheadPct = 2.0

	overheadSources   = 64
	overheadOutDegree = 8
	overheadQuery     = "SELECT dst FROM qedges WHERE src = $1"
)

// overheadDB holds a small edge table sharded on the lookup key, so
// the point lookup exercises bind-time single-shard routing and its
// per-execution cost is the fixed parse/plan/bind/open cost.
func overheadDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, "CREATE TABLE qedges (src INTEGER NOT NULL, dst INTEGER NOT NULL) PARTITION BY HASH(src) SHARDS 8")
	for src := 0; src < overheadSources; src++ {
		vals := make([]string, overheadOutDegree)
		for d := range vals {
			vals[d] = fmt.Sprintf("(%d, %d)", src, (src*overheadOutDegree+d)%overheadSources)
		}
		mustExec(t, db, "INSERT INTO qedges VALUES "+strings.Join(vals, ", "))
	}
	return db
}

// pointLookup runs one prepared execution and drains it.
func pointLookup(ctx context.Context, sess *Session, key int64) error {
	rows, _, err := sess.RunStreamBound(ctx, overheadQuery, []storage.Value{storage.Int64(key)})
	if err != nil {
		return err
	}
	if _, err := rows.Materialize(); err != nil {
		rows.Close()
		return err
	}
	return rows.Close()
}

// measureOverhead returns the cost of set(true) over set(false) on the
// point lookup, in percent. A ~10µs query drifts several percent from
// one millisecond to the next (GC, frequency scaling, other processes
// on the same cores), so the two settings alternate execution by
// execution — drift lands on both sides equally, and a coin flip picks
// which side leads each pair — and each setting's cost is the trimmed
// mean of its execution times, which drops the preempted and
// GC-stalled executions. Alternating whole blocks of executions
// instead swings by ±10% when another test binary shares the cores.
func measureOverhead(db *DB, set func(on bool)) (float64, error) {
	defer set(true)
	tr := db.Tracer()
	prev := tr.Sampling()
	tr.SetSampling(0)
	defer tr.SetSampling(prev)
	sess := db.NewSession()
	defer sess.Close()
	ctx := context.Background()

	// Warm-up keeps the plan-cache fill and first-touch faults out of
	// the measurement.
	if err := pointLookup(ctx, sess, 0); err != nil {
		return 0, err
	}
	times := map[bool][]float64{}
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for key := int64(0); time.Since(start) < time.Second; key = (key + 1) % overheadSources {
		first := rng.Intn(2) == 1
		for _, on := range []bool{first, !first} {
			set(on)
			t0 := time.Now()
			if err := pointLookup(ctx, sess, key); err != nil {
				return 0, err
			}
			times[on] = append(times[on], float64(time.Since(t0).Nanoseconds()))
		}
	}
	off, on := trimmedMean(times[false]), trimmedMean(times[true])
	if off <= 0 {
		return 0, fmt.Errorf("baseline measured zero time")
	}
	return (on - off) / off * 100, nil
}

// trimmedMean averages the middle 60% of xs.
func trimmedMean(xs []float64) float64 {
	sort.Float64s(xs)
	lo, hi := len(xs)/5, len(xs)*4/5
	if hi <= lo {
		lo, hi = 0, len(xs)
	}
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// checkOverheadBudget measures, retries once (one noisy second on a
// loaded machine must not fail the test, a reproducible regression
// must), and enforces the budget except under the race detector, whose
// instrumented atomics inflate exactly the costs being budgeted.
func checkOverheadBudget(t *testing.T, what string, set func(on bool)) {
	db := overheadDB(t)
	pct, err := measureOverhead(db, set)
	if err != nil {
		t.Fatal(err)
	}
	if pct > maxOverheadPct {
		if pct, err = measureOverhead(db, set); err != nil {
			t.Fatal(err)
		}
	}
	report := t.Logf
	if pct > maxOverheadPct && !raceEnabled {
		report = t.Errorf
	}
	report("%s cost %.2f%% on the prepared point lookup (budget %.1f%%)", what, pct, maxOverheadPct)
}

// TestCounterOverhead compares executions with operator counters off
// and on, tracing sampled off in both so the counters are not charged
// for per-operator trace spans.
func TestCounterOverhead(t *testing.T) {
	checkOverheadBudget(t, "operator counters", exec.SetStatsEnabled)
}

// TestTraceOverhead compares executions with the trace entry point
// skipped entirely — the closest runtime stand-in for an engine built without
// tracing — against the shipped disabled mode: hooks installed,
// sampling 0, collector nil.
func TestTraceOverhead(t *testing.T) {
	checkOverheadBudget(t, "disabled statement tracing", SetTraceHooks)
}
