package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	vertexica "repro"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/storage"
)

// sqlWorkload runs three analytic statements over the fact table in
// process, with unlimited work_mem or under a 64 KiB grant that forces
// every blocking operator out of core. op1 = filter + GROUP BY, op2 = FK
// hash join + aggregate, op3 = two-key ORDER BY, fully drained.
type sqlWorkload struct {
	base
	spill bool

	rows   []dataset.Edge
	eng    *vertexica.Engine
	sess   *engine.Session
	spans  *engine.Session // reads vx$trace_spans without disturbing sess
	oracle *sqlOracle
	pend   []pendingTrace
}

func newSQLWorkload(spill bool) func(*config, *recorder) workload {
	return func(cfg *config, rec *recorder) workload {
		return &sqlWorkload{base: newBase(cfg, rec), spill: spill}
	}
}

// perRound is how often each statement runs in a round: the in-memory
// round repeats the short statements so every class gets a sample worth
// a median; the spilled statements take seconds each, so one of each is
// a round.
func (w *sqlWorkload) perRound() [3]int {
	if w.spill {
		return [3]int{1, 1, 1}
	}
	return [3]int{4, 2, 1}
}

func (w *sqlWorkload) setup(ctx context.Context) error {
	sz := w.cfg.size
	t0 := time.Now()
	w.rows = dataset.ErdosRenyi(graphName, sz.nodes, sz.factRows, w.cfg.seed).Edges
	w.setupT["generate"] = time.Since(t0)
	var err error
	if w.eng, err = newEngine(w.cfg, ""); err != nil {
		return err
	}
	// The engine default grant may come from the environment; this
	// workload states its own.
	w.eng.DB().SetWorkMem(0)
	if _, _, err = w.eng.SQL(fmt.Sprintf(createEdgeSQL, edgeTable, tableShards)); err != nil {
		return err
	}
	if err = appendEdges(w.eng, edgeTable, w.rows); err != nil {
		return err
	}
	if err = createNodes(w.eng, sz.nodes); err != nil {
		return err
	}
	w.sess = w.eng.DB().NewSession()
	w.spans = w.eng.DB().NewSession()
	// Warm-up runs every statement once with unlimited memory, also for
	// the spilling workload: that faults the tables in, and a spilled
	// execution keeps nothing between runs that a warm-up could prepare
	// (its run files are written and deleted every time), while three
	// spilled warm-ups would cost more than the measured window.
	for slot := range 3 {
		if _, err = w.statement(ctx, slot, false); err != nil {
			return err
		}
	}
	if w.spill {
		_, _, err = w.sess.Run(ctx, "SET work_mem = "+strconv.Itoa(spillGrant))
	}
	return err
}

var sqlTexts = [3]string{aggSQL, joinSQL, sortSQL}
var sqlNames = [3]string{"agg", "join", "sort"}

// statement runs one of the three statements to the last batch and
// returns the time spent inside the engine: the harness's own checking
// between batches is not counted. With verify set, a wrong answer is
// returned as an error.
func (w *sqlWorkload) statement(ctx context.Context, slot int, verify bool) (time.Duration, error) {
	var sc sortCheck
	var out *storage.Batch
	t0 := time.Now()
	rows, _, err := w.sess.RunStream(ctx, sqlTexts[slot])
	busy := time.Since(t0)
	if err != nil {
		return busy, err
	}
	for {
		t0 = time.Now()
		b, err := rows.Next()
		busy += time.Since(t0)
		if err != nil {
			rows.Close()
			return busy, err
		}
		if b == nil {
			break
		}
		if slot == 2 {
			sc.add(b)
		} else if out == nil {
			out = b
		} else if err := storage.Concat(out, b); err != nil {
			rows.Close()
			return busy, err
		}
	}
	t0 = time.Now()
	err = rows.Close()
	busy += time.Since(t0)
	if err != nil || !verify {
		return busy, err
	}
	if out == nil {
		out = storage.NewBatch(rows.Schema())
	}
	switch slot {
	case 0:
		return busy, w.oracle.checkAgg(out)
	case 1:
		return busy, w.oracle.checkJoin(out)
	default:
		return busy, w.oracle.checkSort(&sc)
	}
}

func (w *sqlWorkload) round(ctx context.Context) error {
	if w.oracle == nil {
		w.oracle = newSQLOracle(w.rows)
	}
	for slot, n := range w.perRound() {
		for i := 0; i < n; i++ {
			op, start := w.rec.op(), w.rec.now()
			d, err := w.statement(ctx, slot, true)
			if err != nil {
				w.wrong(err)
			}
			w.phase(d)
			w.observe(slot, d)
			if w.rec != nil {
				root := w.rec.add(op, 0, "engine.session_"+sqlNames[slot], start, w.rec.now())
				w.pend = append(w.pend, pendingTrace{op: op, root: root, start: start, traceID: w.sess.LastTraceID()})
			}
		}
	}
	if w.rec != nil {
		err := attachEngineSpans(w.rec, sessionQuery(ctx, w.spans), w.pend)
		w.pend = w.pend[:0]
		return err
	}
	return nil
}

func (w *sqlWorkload) finish(context.Context) error { return nil }

func (w *sqlWorkload) fixture() *fixture { return &fixture{eng: w.eng, nodes: w.cfg.size.nodes} }

func (w *sqlWorkload) close() {
	if w.sess != nil {
		w.sess.Close()
		w.spans.Close()
	}
	if w.eng != nil {
		w.eng.Close()
	}
}

// --- engine spans, read back through vx$trace_spans ---

// pendingTrace is a harness root span waiting for the engine's own spans
// of the same statement: found by trace id, or, for a write statement
// (whose acknowledgement carries no trace id), by the statement text the
// engine traced, which is the text it logs.
type pendingTrace struct {
	op, root, start int64
	traceID         uint64
	stmt            string
}

// engineSpan is one row of vx$trace_spans.
type engineSpan struct {
	depth        int64
	stage        string
	startUs, dur int64 // microseconds
}

// queryFunc runs a SELECT and returns its materialized result.
type queryFunc func(query string) (*storage.Batch, error)

func sessionQuery(ctx context.Context, sess *engine.Session) queryFunc {
	return func(q string) (*storage.Batch, error) {
		rows, _, err := sess.Run(ctx, q)
		if err != nil {
			return nil, err
		}
		return rows.Materialize()
	}
}

// fetchEngineSpans reads the retained traces' spans, grouped by trace
// id, in recording order. The tracer's ring keeps the last 256
// statements, so callers fetch at least that often.
func fetchEngineSpans(query queryFunc) (map[uint64][]engineSpan, error) {
	b, err := query("SELECT trace_id, depth, stage, start_us, dur_us FROM vx$trace_spans ORDER BY trace_id, seq")
	if err != nil {
		return nil, err
	}
	out := map[uint64][]engineSpan{}
	for i := 0; i < b.Len(); i++ {
		id := uint64(b.Cols[0].Value(i).AsInt())
		out[id] = append(out[id], engineSpan{
			depth:   b.Cols[1].Value(i).AsInt(),
			stage:   b.Cols[2].Value(i).S,
			startUs: b.Cols[3].Value(i).AsInt(),
			dur:     b.Cols[4].Value(i).AsInt(),
		})
	}
	return out, nil
}

// attachEngineSpans hangs each pending statement's engine spans under
// its harness root span, so the harness waterfall and the engine's own
// trace read line by line: lifecycle stages become engine.<stage>,
// operator spans (depth 1 and deeper, inclusive of their children)
// become exec.<operator>.
func attachEngineSpans(rec *recorder, query queryFunc, pend []pendingTrace) error {
	byTrace, err := fetchEngineSpans(query)
	if err != nil {
		return err
	}
	var byStmt map[string]uint64
	for _, p := range pend {
		if p.stmt == "" || byStmt != nil {
			continue
		}
		b, err := query("SELECT trace_id, stmt FROM vx$traces")
		if err != nil {
			return err
		}
		byStmt = make(map[string]uint64, b.Len())
		for i := 0; i < b.Len(); i++ {
			byStmt[b.Cols[1].Value(i).S] = uint64(b.Cols[0].Value(i).AsInt())
		}
	}
	for _, p := range pend {
		if p.stmt != "" {
			p.traceID = byStmt[p.stmt]
		}
		parents := []int64{p.root} // parents[d] = latest span at depth d-1
		for _, s := range byTrace[p.traceID] {
			name := "engine." + s.stage
			if s.depth > 0 {
				name = "exec." + operatorName(s.stage)
			}
			d := int(s.depth)
			if d >= len(parents) {
				d = len(parents) - 1
			}
			start := p.start + s.startUs*1000
			id := rec.add(p.op, parents[d], name, start, start+s.dur*1000)
			parents = append(parents[:d+1], id)
		}
	}
	return nil
}

// operatorName reduces an operator span's stage ("op:HashJoin(...)") to
// the operator's name.
func operatorName(stage string) string {
	name := strings.TrimPrefix(stage, "op:")
	if i := strings.IndexFunc(name, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z')
	}); i > 0 {
		name = name[:i]
	}
	return name
}
