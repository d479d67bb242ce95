package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	vertexica "repro"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The ladder is the set of layer probes every traced pass runs against
// the workload's own engine: the same operation entered one layer deeper
// each time (wire → session → planner → parser), codecs on the table's
// own batches, and the restart path. Every engine holds the same two
// relations, so the probes are the same statements everywhere and each
// number can be read against the same number on another workload. What
// the workload lacks (a graph, a durable directory) is probed on a small
// fixture instead.

const probeTable = "vx_probe" // scratch table the write probes fill

// fixture is what a workload hands the ladder.
type fixture struct {
	eng   *vertexica.Engine
	dir   string           // the engine's durable directory, "" for in-memory
	nodes int64            // key space of edgeTable.src
	graph *vertexica.Graph // the workload's graph, nil if it has none
}

// probeBudget caps one probe's wall time: a probe of a slow operation
// (a one-hop join is ~100 ms at HEAD) stops early rather than run its
// full count.
const probeBudget = 500 * time.Millisecond

// probe measures fn up to n times (at least three, then until the budget
// is spent) and returns the latencies in microseconds.
func probe(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n && (i < 3 || time.Since(start) < probeBudget); i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out, nil
}

// drainRows pulls an in-process result to its end.
func drainRows(rows *engine.Rows) error {
	for {
		b, err := rows.Next()
		if err != nil {
			rows.Close()
			return err
		}
		if b == nil {
			return rows.Close()
		}
	}
}

func ladder(ctx context.Context, cfg *config, fx *fixture, out map[string]float64) error {
	l := &ladderRun{ctx: ctx, cfg: cfg, fx: fx, out: out, n: cfg.size.probeOps,
		rng: rand.New(rand.NewSource(cfg.seed + 7919))}
	steps := []func() error{l.frontEnd, l.session, l.wire, l.codecs, l.scans, l.spill, l.durable, l.graph, l.storage}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

type ladderRun struct {
	ctx context.Context
	cfg *config
	fx  *fixture
	out map[string]float64
	n   int
	rng *rand.Rand

	pointInprocUs float64
	// Result bytes moved per microsecond of client latency, for a point
	// lookup and for a whole-table stream; wire() measures them and
	// codecs() prices them at the codec rates.
	pointBytesPerUs, streamBytesPerUs float64
}

func (l *ladderRun) key() storage.Value { return storage.Int64(l.rng.Int63n(l.fx.nodes)) }

// frontEnd times the parser and the planner alone on the two served
// statement texts.
func (l *ladderRun) frontEnd() error {
	db := l.fx.eng.DB()
	planner := plan.New(db.Catalog(), db.Funcs())
	planner.Parallelism = l.cfg.pin
	for name, text := range map[string]string{"point": pointSQL, "join": onehopSQL} {
		parse, err := probe(10*l.n, func(int) error {
			_, err := sql.Parse(text)
			return err
		})
		if err != nil {
			return err
		}
		st, err := sql.Parse(text)
		if err != nil {
			return err
		}
		sel, ok := st.(*sql.SelectStmt)
		if !ok {
			return fmt.Errorf("ladder: %q is not a SELECT", text)
		}
		plans, err := probe(10*l.n, func(int) error {
			_, err := planner.PlanSelectParams(sel, 0, nil, plan.NewParams([]storage.Value{l.key()}))
			return err
		})
		if err != nil {
			return err
		}
		l.out["sql.parse_"+name+"_us"] = median(parse)
		l.out["plan.plan_"+name+"_us"] = median(plans)
	}
	return nil
}

// session runs the served statements through an in-process session: no
// wire, no server. The engine's own spans of the prepared point lookups
// give the per-stage numbers.
func (l *ladderRun) session() error {
	sess := l.fx.eng.DB().NewSession()
	defer sess.Close()
	bound := func(text string) func(int) error {
		return func(int) error {
			rows, _, err := sess.RunStreamBound(l.ctx, text, []storage.Value{l.key()})
			if err != nil {
				return err
			}
			return drainRows(rows)
		}
	}
	// Warm the plan cache, then measure.
	for _, text := range []string{pointSQL, onehopSQL} {
		if err := bound(text)(0); err != nil {
			return err
		}
	}
	var traces []uint64
	prepared, err := probe(l.n, func(i int) error {
		err := bound(pointSQL)(i)
		traces = append(traces, sess.LastTraceID())
		return err
	})
	if err != nil {
		return err
	}
	l.stageMedians(l.fx.eng, "engine.span.point.", pointStages, traces, true)
	text, err := probe(l.n, func(int) error {
		q, err := sql.SubstituteParams(pointSQL, []storage.Value{l.key()})
		if err != nil {
			return err
		}
		rows, _, err := sess.RunStream(l.ctx, q)
		if err != nil {
			return err
		}
		return drainRows(rows)
	})
	if err != nil {
		return err
	}
	onehop, err := probe(l.n, bound(onehopSQL))
	if err != nil {
		return err
	}
	l.pointInprocUs = median(prepared)
	l.out["engine.point_prepared_us"] = l.pointInprocUs
	l.out["engine.point_text_us"] = median(text)
	l.out["engine.onehop_prepared_us"] = median(onehop)
	return nil
}

// The lifecycle stages the engine records at HEAD for a prepared point
// SELECT and for a fast-path auto-commit write. A stage the engine stops
// recording reads 0.
var (
	pointStages  = []string{"parse", "plan_cache", "bind", "open", "drain"}
	commitStages = []string{"parse", "wal"}
)

// stageMedians reports the median duration of each lifecycle stage over
// the given statements, and with examined set the rows the statement's
// widest operator produced per execution. It reads the spans from the
// tracer rather than from vx$trace_spans: the view rounds durations to
// whole microseconds, which most of these stages are shorter than.
func (l *ladderRun) stageMedians(eng *vertexica.Engine, prefix string, stages []string, traces []uint64, examined bool) {
	want := make(map[uint64]bool, len(traces))
	for _, id := range traces {
		want[id] = true
	}
	durs := map[string][]float64{}
	var widest []float64 // per statement, oldest first
	recent := eng.DB().Tracer().Recent()
	for i := len(recent) - 1; i >= 0; i-- { // Recent is newest first
		tc := recent[i]
		if !want[tc.ID()] {
			continue
		}
		rows := 0.0
		for _, s := range tc.Spans() {
			if s.Depth == 0 {
				durs[s.Stage] = append(durs[s.Stage], float64(s.DurNs)/1e3)
				continue
			}
			if _, after, ok := strings.Cut(s.Detail, "rows="); ok {
				field, _, _ := strings.Cut(after, " ")
				if v, err := strconv.ParseFloat(field, 64); err == nil && v > rows {
					rows = v
				}
			}
		}
		widest = append(widest, rows)
	}
	for _, st := range stages {
		l.out[prefix+st+"_us"] = median(durs[st])
	}
	if examined && len(widest) > 1 {
		// A cached plan's operator counters accumulate across executions,
		// so the per-execution count is the growth between statements.
		l.out["exec.point_rows_examined"] = (widest[len(widest)-1] - widest[0]) / float64(len(widest)-1)
	}
}

// wire enters the same point lookup through a loopback connection, and
// measures what only a client sees: dialling, preparing, the first row
// of a stream, and the cost of the harness's own tracing.
func (l *ladderRun) wire() error {
	sv, err := serve(l.cfg, l.fx.eng)
	if err != nil {
		return err
	}
	defer sv.shutdown()
	addr := sv.srv.Addr()

	var conn *client.Conn
	dials, err := probe(max(l.n/10, 3), func(int) error {
		if conn != nil {
			conn.Close()
		}
		conn, err = client.Dial(addr)
		return err
	})
	if err != nil {
		return err
	}
	defer conn.Close()
	var st *client.Stmt
	prepares, err := probe(max(l.n/10, 3), func(int) error {
		st, err = conn.Prepare(l.ctx, pointSQL)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := st.Query(l.ctx, l.key()); err != nil {
		return err
	}

	// Alternate plain and traced blocks of lookups so drift lands on both
	// sides; the traced side pays what the traced replay pays inside a
	// statement's timed interval (a span and the trace id; the span fetch
	// runs between phases, outside every timed interval).
	const block = 50
	rec := newRecorder()
	var plain, traced []float64
	var resultBytes float64
	for done := 0; done < l.n; done += block {
		for _, on := range []bool{false, true} {
			var pend []pendingTrace
			lat, err := probe(block, func(int) error {
				if !on {
					_, err := st.Query(l.ctx, l.key())
					return err
				}
				op, start := rec.op(), rec.now()
				rows, err := st.Query(l.ctx, l.key())
				if err != nil {
					return err
				}
				root := rec.add(op, 0, "client.point", start, rec.now())
				pend = append(pend, pendingTrace{op: op, root: root, start: start, traceID: rows.TraceID()})
				resultBytes += float64(storage.BatchBytes(rows.Data))
				return nil
			})
			if err != nil {
				return err
			}
			if on {
				if err := attachEngineSpans(rec, connQuery(l.ctx, conn), pend); err != nil {
					return err
				}
				traced = append(traced, lat...)
			} else {
				plain = append(plain, lat...)
			}
		}
	}
	p := summarize(plain)
	l.out["client.dial_us"] = median(dials)
	l.out["client.prepare_us"] = median(prepares)
	l.out["client.point_p99_us"] = p.P99
	l.out["client.point_max_us"] = p.Max
	l.out["server.point_overhead_us"] = p.Median - l.pointInprocUs
	l.out["harness.trace_overhead_pct"] = 100 * ratio(median(traced)-p.Median, p.Median)

	// Whole-table streams: time to the first batch, and the bytes the
	// wire codecs had to move per microsecond of the drain.
	var firsts []float64
	var streamBytes float64
	var streamed time.Duration
	for i := 0; i < 3; i++ {
		streamBytes = 0
		t0 := time.Now()
		rows, err := conn.QueryStream(l.ctx, streamSQL)
		if err != nil {
			return err
		}
		for first := true; ; first = false {
			b, err := rows.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if first {
				firsts = append(firsts, float64(time.Since(t0))/1e6)
			}
			streamBytes += float64(storage.BatchBytes(b))
		}
		streamed = time.Since(t0)
	}
	l.out["client.first_row_ms"] = median(firsts)
	l.pointBytesPerUs = ratio(resultBytes/float64(len(traced)), p.Median)
	l.streamBytesPerUs = ratio(streamBytes, float64(streamed)/1e3)
	return nil
}

// sampleBatch reads the first n rows of the edge table in process.
func (l *ladderRun) sampleBatch(n int) (*storage.Batch, error) {
	sess := l.fx.eng.DB().NewSession()
	defer sess.Close()
	rows, _, err := sess.RunStream(l.ctx, streamSQL)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := storage.NewBatch(rows.Schema())
	for out.Len() < n {
		b, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := storage.Concat(out, b); err != nil {
			return nil, err
		}
	}
	if out.Len() > n {
		out = out.Slice(0, n)
	}
	return out, nil
}

// codecs times the wire codec on one streamed batch and the spill codec
// on a 4096-row batch of the edge table.
func (l *ladderRun) codecs() error {
	b, err := l.sampleBatch(batchRows)
	if err != nil {
		return err
	}
	frame := b
	if frame.Len() > storage.BatchSize {
		frame = b.Slice(0, storage.BatchSize)
	}
	reps := max(l.n/4, 3)
	var buf wire.Buffer
	enc, err := probe(reps, func(int) error {
		buf.B = buf.B[:0]
		return wire.AppendBatch(&buf, frame)
	})
	if err != nil {
		return err
	}
	dec, err := probe(reps, func(int) error {
		_, err := wire.ReadBatch(&wire.Reader{B: buf.B}, frame.Schema)
		return err
	})
	if err != nil {
		return err
	}
	// MB/s over the batch's in-memory bytes, the same base the spill
	// codec uses, so the two codecs compare.
	raw := float64(storage.BatchBytes(frame))
	encRate, decRate := ratio(raw, median(enc)), ratio(raw, median(dec)) // bytes/µs = MB/s
	l.out["wire.encode_mb_s"] = encRate
	l.out["wire.decode_mb_s"] = decRate
	l.out["wire.bytes_per_row"] = ratio(float64(len(buf.B)), float64(frame.Len()))
	// Share of a request's time the wire codecs account for: bytes moved,
	// encoded once and decoded once at the measured rates, over the
	// request's latency.
	usPerByte := ratio(1, encRate) + ratio(1, decRate)
	l.out["wire.share_point_pct"] = 100 * l.pointBytesPerUs * usPerByte
	l.out["wire.share_stream_pct"] = 100 * l.streamBytesPerUs * usPerByte

	var spilled []byte
	senc, err := probe(reps, func(int) error {
		spilled = storage.EncodeSpillBatch(b)
		return nil
	})
	if err != nil {
		return err
	}
	sdec, err := probe(reps, func(int) error {
		_, err := storage.DecodeSpillBatch(spilled, b.Schema)
		return err
	})
	if err != nil {
		return err
	}
	raw = float64(storage.BatchBytes(b))
	l.out["storage.spill_encode_mb_s"] = ratio(raw, median(senc))
	l.out["storage.spill_decode_mb_s"] = ratio(raw, median(sdec))
	return nil
}

// scans times a full scan with and without a ~50% predicate.
func (l *ladderRun) scans() error {
	total, err := scalarInt(l.ctx, l.fx.eng, scanSQL)
	if err != nil {
		return err
	}
	for name, q := range map[string]string{"exec.scan_rows_s": scanSQL, "exec.filter_rows_s": filterSQL} {
		lat, err := probe(5, func(int) error {
			_, err := scalarInt(l.ctx, l.fx.eng, q)
			return err
		})
		if err != nil {
			return err
		}
		l.out[name] = ratio(float64(total), median(lat)/1e6)
	}
	return nil
}

// spill runs the three analytic statements once with unlimited memory
// and once under the 64 KiB grant, on one worker so the spill counts
// repeat exactly.
func (l *ladderRun) spill() error {
	sess := l.fx.eng.DB().NewSession()
	defer sess.Close()
	if _, _, err := sess.Run(l.ctx, "SET parallelism = 1"); err != nil {
		return err
	}
	run := func(q string) (time.Duration, error) {
		t0 := time.Now()
		rows, _, err := sess.RunStream(l.ctx, q)
		if err != nil {
			return 0, err
		}
		err = drainRows(rows)
		return time.Since(t0), err
	}
	mem := [3]time.Duration{}
	for slot, q := range sqlTexts {
		var err error
		if mem[slot], err = run(q); err != nil {
			return err
		}
	}
	if _, _, err := sess.Run(l.ctx, "SET work_mem = "+strconv.Itoa(spillGrant)); err != nil {
		return err
	}
	denials0 := l.fx.eng.DB().MemoryBudget().Denials()
	for slot, q := range sqlTexts {
		runs0, bytes0 := storage.SpillTotals()
		d, err := run(q)
		if err != nil {
			return err
		}
		runs1, bytes1 := storage.SpillTotals()
		name := sqlNames[slot]
		l.out["exec.spill_slowdown_"+name] = ratio(float64(d), float64(mem[slot]))
		l.out["storage.spill_bytes_"+name] = float64(bytes1 - bytes0)
		l.out["storage.spill_runs_"+name] = float64(runs1 - runs0)
	}
	l.out["sched.mem_denials"] = float64(l.fx.eng.DB().MemoryBudget().Denials() - denials0)
	return nil
}

// durable probes the commit path and the restart path on a durable
// engine: the workload's own when it has one, a small fixture otherwise.
func (l *ladderRun) durable() error {
	eng, dir := l.fx.eng, l.fx.dir
	own := dir != ""
	if !own {
		var err error
		if dir, err = scratchDir(l.cfg, "durable_probe"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if eng, err = newEngine(l.cfg, dir); err != nil {
			return err
		}
		defer func() { eng.Close() }()
	}
	if _, _, err := eng.SQL(fmt.Sprintf(createEdgeSQL, probeTable, tableShards)); err != nil {
		return err
	}
	insert := "INSERT INTO " + probeTable + " VALUES ($1, $2, $3, $4, $5)"
	next := int64(0)
	args := func() []storage.Value {
		next++
		return []storage.Value{storage.Int64(insertKeyBase + next), storage.Int64(next), storage.Float64(insertedWeight),
			storage.Str(insertedType), storage.Int64(insertedTime + next)}
	}

	sess := eng.DB().NewSession()
	defer sess.Close()
	if _, _, err := sess.RunStreamBound(l.ctx, insert, args()); err != nil {
		return err
	}
	walPath := filepath.Join(dir, "wal.sql")
	wal0, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	fsyncs0 := registry(eng)["wal.fsyncs"]
	var traces []uint64
	commits, err := probe(l.n, func(int) error {
		_, res, err := sess.RunStreamBound(l.ctx, insert, args())
		if err == nil && res.RowsAffected != 1 {
			err = fmt.Errorf("ladder: insert affected %d rows", res.RowsAffected)
		}
		traces = append(traces, sess.LastTraceID())
		return err
	})
	if err != nil {
		return err
	}
	wal1, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	n := float64(l.n)
	l.out["engine.commit_inproc_us"] = median(commits)
	l.out["engine.wal_fsyncs_per_commit"] = ratio(registry(eng)["wal.fsyncs"]-fsyncs0, n)
	l.out["engine.wal_bytes_per_commit"] = ratio(float64(wal1.Size()-wal0.Size()), n)
	l.out["engine.wal_bytes_per_user_byte"] = ratio(float64(wal1.Size()-wal0.Size()), n*float64(insertUserBytes))
	l.stageMedians(eng, "engine.span.commit.", commitStages, traces, false)

	// The same INSERT over the wire, for the commit tail a client sees.
	sv, err := serve(l.cfg, eng)
	if err != nil {
		return err
	}
	conn, err := client.Dial(sv.srv.Addr())
	if err != nil {
		sv.shutdown()
		return err
	}
	st, err := conn.Prepare(l.ctx, insert)
	var wired []float64
	if err == nil {
		wired, err = probe(l.n, func(int) error {
			_, err := st.Exec(l.ctx, args()...)
			return err
		})
	}
	conn.Close()
	if serr := sv.shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	l.out["client.commit_p99_us"] = summarize(wired).P99

	if own {
		return nil // the workload's own restart is measured by its finish()
	}
	if eng, err = restart(l.cfg, eng, dir, next, l.out); err != nil {
		return err
	}
	got, err := scalarInt(l.ctx, eng, "SELECT COUNT(*) FROM "+probeTable)
	if err == nil && got != next {
		err = fmt.Errorf("ladder: %d rows after restart, want %d", got, next)
	}
	return err
}

// restart checkpoints eng, closes it and reopens dir, and reports what
// the restart path costs: the checkpoint's time, its bytes per row of the
// rows stored, and the time of Close + Open. The engine it returns
// replaces eng.
func restart(cfg *config, eng *vertexica.Engine, dir string, rows int64, out map[string]float64) (*vertexica.Engine, error) {
	t0 := time.Now()
	if err := eng.Checkpoint(); err != nil {
		return eng, err
	}
	out["engine.checkpoint_s"] = time.Since(t0).Seconds()
	snap, err := os.Stat(filepath.Join(dir, "snapshot.vxc"))
	if err != nil {
		return eng, err
	}
	out["engine.checkpoint_bytes_per_row"] = ratio(float64(snap.Size()), float64(rows))
	t0 = time.Now()
	if err := eng.Close(); err != nil {
		return eng, err
	}
	reopened, err := newEngine(cfg, dir)
	if err != nil {
		return eng, err
	}
	out["engine.recovery_s"] = time.Since(t0).Seconds()
	return reopened, nil
}

// graph probes the graph runtimes on the workload's graph or a fixture.
func (l *ladderRun) graph() error {
	if l.fx.graph == nil {
		return fixtureGraphProbe(l.ctx, l.cfg, l.out)
	}
	return graphProbe(l.ctx, l.cfg, l.fx.eng, l.fx.graph, l.out)
}

// storage times Table.AppendBatch into a scratch table, and
// Table.Snapshot right after a one-row append on the edge table itself:
// the re-freeze a reader pays for after every commit. It changes the
// edge table, so it runs last.
func (l *ladderRun) storage() error {
	b, err := l.sampleBatch(batchRows)
	if err != nil {
		return err
	}
	cat := l.fx.eng.DB().Catalog()
	scratch, err := cat.CreateSharded("vx_probe_append", b.Schema, 0, tableShards)
	if err != nil {
		return err
	}
	appends, err := probe(max(l.n/4, 3), func(int) error { return scratch.AppendBatch(b) })
	if err != nil {
		return err
	}
	if err := cat.Drop("vx_probe_append"); err != nil {
		return err
	}
	l.out["storage.append_rows_s"] = ratio(float64(b.Len()), median(appends)/1e6)

	t, err := cat.Get(edgeTable)
	if err != nil {
		return err
	}
	row := b.Row(0)
	var freezes []float64
	for i := 0; i < max(l.n/4, 3); i++ {
		if err := t.AppendRow(row...); err != nil {
			return err
		}
		t0 := time.Now()
		t.Snapshot()
		freezes = append(freezes, float64(time.Since(t0))/1e3)
	}
	l.out["storage.snapshot_after_write_us"] = median(freezes)
	return nil
}
