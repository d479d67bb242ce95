package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Options configures a vertex-centric run. The zero value selects the
// paper's defaults (one worker per core, batching on).
type Options struct {
	// Workers is the number of parallel worker "UDF instances"
	// (§2.3 Parallel Workers). 0 means runtime.NumCPU().
	Workers int
	// Partitions is the number of hash partitions of the table union
	// (§2.3 Vertex Batching). 0 means 4× workers. 1 disables batching
	// parallelism (a single serial batch).
	Partitions int
	// MaxSupersteps bounds the run. 0 means 500.
	MaxSupersteps int
}

// updateThreshold is the changed-tuple fraction below which vertex
// values are updated in place instead of rebuilding the table (§2.3
// Update Vs Replace). Each superstep picks its path from the fraction
// it actually changed.
const updateThreshold = 0.10

// withDefaultsSharded resolves defaults knowing the graph's shard count
// (the vertex table's; CreateGraphSharded gives all three tables the
// same). A defaulted partition count is rounded up to a multiple of the
// shard count: input partitioning and table sharding use the same hash
// (storage.HashInt64), so when partitions = k·shards every input
// partition draws its rows from exactly one shard of each graph table —
// partition-local work stays shard-local, and the per-partition gathers
// read contiguous shard-major runs of the assembled input.
func (o Options) withDefaultsSharded(shards int) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Partitions <= 0 {
		o.Partitions = o.Workers * 4
		if shards > 1 {
			o.Partitions = ((o.Partitions + shards - 1) / shards) * shards
		}
	}
	if o.MaxSupersteps <= 0 {
		o.MaxSupersteps = 500
	}
	return o
}

// SuperstepStats records one superstep's execution.
type SuperstepStats struct {
	Superstep    int
	Computed     int  // vertices whose Compute ran
	MessagesOut  int  // messages emitted (after combining)
	Updated      int  // vertex tuples changed
	UsedReplace  bool // replace (true) vs in-place update
	InputRows    int  // vertex+message rows plus the edges of the dispatched partitions
	CacheHit     bool // the run's edge arrays reused without rebuild
	SkippedParts int  // quiescent partitions not dispatched to workers
	SkippedVerts int  // halted vertices inside skipped partitions
	Duration     time.Duration

	// Phases of Duration: assembling the partition inputs, running
	// Compute (workers route their outboxes as they go), sorting and
	// combining each destination partition, and writing back the
	// vertex and message tables.
	InputTime, ComputeTime, FoldTime, WriteTime time.Duration
}

// RunStats summarizes a full run of a vertex program.
type RunStats struct {
	Supersteps       int
	TotalComputed    int64
	TotalMessages    int64
	DanglingMessages int64
	CacheBuilds      int   // edge-array (re)builds
	CacheHits        int   // supersteps that reused the edge arrays
	SkippedParts     int64 // quiescent partitions skipped across the run
	SkippedVerts     int64 // halted vertices inside skipped partitions
	Steps            []SuperstepStats
	Duration         time.Duration
}

// Coordinator drives supersteps over a graph — the stored procedure of
// Figure 1. It owns no state between runs; everything lives in the
// graph's relational tables.
type Coordinator struct {
	Graph   *Graph
	Program VertexProgram
	Opts    Options
}

// Run executes the program until every vertex has halted and no
// messages remain, or MaxSupersteps is reached.
func (c *Coordinator) Run(ctx context.Context) (*RunStats, error) {
	start := time.Now()
	stats := &RunStats{}

	g := c.Graph
	numVerts, err := g.NumVertices()
	if err != nil {
		return nil, err
	}
	if numVerts == 0 {
		return stats, nil
	}

	// Row index of each vertex id; stays valid because both write-back
	// paths preserve row order. Reading the table directly goes through
	// a pinned MVCC snapshot (concurrent SQL sessions may be writing),
	// so the iteration holds no engine latch.
	vt, err := g.DB.Catalog().Get(g.VertexTable())
	if err != nil {
		return nil, err
	}
	// Align defaulted input partitioning with the graph's shard layout.
	opts := c.Opts.withDefaultsSharded(vt.NumShards())
	rowOf := make(map[int64]int, numVerts)
	{
		snap, err := g.DB.AcquireSnapshot(g.VertexTable())
		if err != nil {
			return nil, err
		}
		vtd, err := snap.Table(g.VertexTable())
		if err != nil {
			snap.Release()
			return nil, err
		}
		ids := vtd.Data().Cols[0].(*storage.Int64Column).Int64s()
		for i, id := range ids {
			rowOf[id] = i
		}
		snap.Release()
	}

	var combiner *Combiner
	if hc, ok := c.Program.(HasCombiner); ok {
		comb := hc.Combiner()
		combiner = &comb
	}
	aggKinds := make(map[string]AggregatorKind)
	if ha, ok := c.Program.(HasAggregators); ok {
		for _, spec := range ha.Aggregators() {
			aggKinds[spec.Name] = spec.Kind
		}
	}
	aggPrev := make(map[string]float64)

	// The edge side of the input is immutable for the duration of a
	// run, so it is built into per-partition edge arrays once and each
	// superstep reads only the fresh vertex+message rows beside them.
	in := newRunInput(g, opts.Partitions, opts.Workers)

	for step := 0; step < opts.MaxSupersteps; step++ {
		if err := ctxErr(ctx); err != nil {
			return stats, err
		}
		stepStart := time.Now()

		// 1. Assemble the superstep input.
		ss := SuperstepStats{Superstep: step}
		if ss.CacheHit, err = in.refreshEdges(ctx); err != nil {
			return stats, err
		}
		if ss.CacheHit {
			stats.CacheHits++
		} else {
			stats.CacheBuilds++
		}
		parts, err := in.superstep(ctx, step, &ss)
		if err != nil {
			return stats, err
		}
		// Vertices inside skipped partitions are all halted and receive
		// no messages, so they cannot affect the halt vote or emit
		// anything — skipping them is lossless.
		stats.SkippedParts += int64(ss.SkippedParts)
		stats.SkippedVerts += int64(ss.SkippedVerts)
		computeStart := time.Now()

		// 2. Run workers in parallel over the partitions. Each routes
		// its outgoing messages to their destination partitions.
		res, err := c.runWorkers(ctx, parts, step, numVerts, opts, aggPrev, aggKinds)
		if err != nil {
			return stats, err
		}
		stats.DanglingMessages += int64(res.dangling)
		foldStart := time.Now()

		// 3. Sort, and combine, each destination partition's messages
		// in parallel. Sorting on (dst, src, value) first makes the
		// fold order independent of which worker produced which
		// message, so combined floats — and therefore the whole run —
		// are bit-identical at any worker count or budget.
		runs, err := foldMessages(g.DB.WorkerBudget(), opts.Workers, res.routed, combiner, step)
		if err != nil {
			return stats, err
		}
		writeStart := time.Now()

		// 4. Write back vertex state via Update-vs-Replace.
		updated, usedReplace, err := c.writeVertices(vt, rowOf, res.updates)
		if err != nil {
			return stats, err
		}

		// 5. Replace the message table with the new superstep's messages.
		sent, err := c.writeMessages(runs)
		if err != nil {
			return stats, err
		}

		// 6. Merge global aggregators for the next superstep.
		aggPrev = mergeAggregates(res.aggs, aggKinds)

		ss.Computed = res.computed
		ss.MessagesOut = sent
		ss.Updated = updated
		ss.UsedReplace = usedReplace
		ss.Duration = time.Since(stepStart)
		ss.InputTime = computeStart.Sub(stepStart)
		ss.ComputeTime = foldStart.Sub(computeStart)
		ss.FoldTime = writeStart.Sub(foldStart)
		ss.WriteTime = time.Since(writeStart)
		stats.Steps = append(stats.Steps, ss)
		stats.Supersteps = step + 1
		stats.TotalComputed += int64(res.computed)
		stats.TotalMessages += int64(sent)

		// 7. Halt when no messages remain and every vertex voted halt.
		if sent == 0 && res.allHalted {
			break
		}
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// vertexUpdate is one vertex's post-compute state.
type vertexUpdate struct {
	id      int64
	value   string
	halted  bool
	changed bool // value or halted differs from the pre-superstep state
}

// partResult is one input partition's output. Whatever folds floats
// across partitions (aggregates, messages) is kept per partition and
// merged in partition order, independent of which worker ran which
// partition.
type partResult struct {
	updates  []vertexUpdate
	routed   [][]Message        // outgoing messages by destination partition
	aggs     map[string]float64 // aggregator contributions
	computed int
	dangling int
	halted   int
	seen     int
}

// mergedResult is the barrier-merged output of all partitions.
type mergedResult struct {
	updates   []vertexUpdate
	routed    [][][]Message // by destination partition, then input partition
	aggs      []map[string]float64
	computed  int
	dangling  int
	allHalted bool
}

// runWorkers runs the partitions on the run's own goroutine plus up to
// opts.Workers-1 extras drawn from the engine's global worker budget,
// so a vertex-centric run and concurrent SQL statements share cores
// instead of oversubscribing them, and merges the results at the
// synchronization barrier; results are partition-deterministic, so the
// pool size never changes the outcome. A panic inside a vertex program
// is recovered and surfaced as an error. Partitions observe ctx before
// they start and periodically within, so cancelling mid-superstep
// aborts the superstep instead of running it to the barrier.
func (c *Coordinator) runWorkers(ctx context.Context, parts []*partInput, step int, numVerts int64,
	opts Options, aggPrev map[string]float64, aggKinds map[string]AggregatorKind) (*mergedResult, error) {

	results := make([]partResult, len(parts))
	errs := make([]error, len(parts))
	sched.ForEach(c.Graph.DB.WorkerBudget(), len(parts), opts.Workers, func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("core: partition %d: vertex program panicked: %v", i, r)
			}
		}()
		if errs[i] = ctx.Err(); errs[i] == nil {
			results[i] = partResult{routed: make([][]Message, opts.Partitions), aggs: make(map[string]float64)}
			errs[i] = c.runPartition(ctx, parts[i], step, numVerts, aggPrev, aggKinds, &results[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	merged := &mergedResult{routed: make([][][]Message, opts.Partitions)}
	haltedSeen, totalSeen := 0, 0
	for _, r := range results {
		merged.updates = append(merged.updates, r.updates...)
		for p, msgs := range r.routed {
			merged.routed[p] = append(merged.routed[p], msgs)
		}
		if len(r.aggs) > 0 {
			merged.aggs = append(merged.aggs, r.aggs)
		}
		merged.computed += r.computed
		merged.dangling += r.dangling
		haltedSeen += r.halted
		totalSeen += r.seen
	}
	merged.allHalted = haltedSeen == totalSeen
	return merged, nil
}

// ctxErr reports ctx cancellation, also honoring an already-expired
// deadline whose timer has not fired yet: under heavy load the runtime
// can deliver timer callbacks late, and a statement_timeout must bound
// a vertex run deterministically rather than at the timer's mercy.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// cancelCheckEvery is how many vertices a worker computes between
// context checks inside one partition, balancing cancellation latency
// against per-vertex overhead on the hot path.
const cancelCheckEvery = 64

// runPartition executes the vertex program serially over one partition
// — the worker "UDF" of Figure 1 — routing each vertex's outbox to its
// destination partitions as it goes.
func (c *Coordinator) runPartition(ctx context.Context, part *partInput, step int, numVerts int64,
	aggPrev map[string]float64, aggKinds map[string]AggregatorKind, res *partResult) error {

	// One context, outbox and pair of aggregator maps serve every
	// vertex of the partition, reset between vertices.
	vc := &VertexContext{}
	aggCur := make(map[string]float64)
	dangling, err := part.walk(func(u *workUnit) error {
		if res.seen%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		res.seen++
		active := step == 0 || len(u.msgs) > 0 || !u.halted
		if !active {
			res.halted++
			return nil
		}
		clear(aggCur)
		*vc = VertexContext{
			id:        u.id,
			superstep: step,
			value:     u.value,
			halted:    u.halted,
			outEdges:  u.edges,
			numVerts:  numVerts,
			outbox:    vc.outbox[:0],
			aggPrev:   aggPrev,
			aggCur:    aggCur,
			aggKind:   aggKinds,
		}
		if err := c.Program.Compute(vc, u.msgs); err != nil {
			return fmt.Errorf("core: vertex %d superstep %d: %w", u.id, step, err)
		}
		res.computed++
		newHalted := vc.votedHalt
		if newHalted {
			res.halted++
		}
		res.updates = append(res.updates, vertexUpdate{
			id:      u.id,
			value:   vc.value,
			halted:  newHalted,
			changed: vc.valueChanged || newHalted != u.halted,
		})
		for _, m := range vc.outbox {
			p := storage.HashInt64(m.Dst) % uint64(len(res.routed))
			res.routed[p] = append(res.routed[p], m)
		}
		for name, v := range vc.aggCur {
			if cur, ok := res.aggs[name]; ok {
				v = foldAggregate(aggKinds[name], cur, v)
			}
			res.aggs[name] = v
		}
		return nil
	})
	res.dangling += dangling
	return err
}

func foldAggregate[T int64 | float64](kind AggregatorKind, a, b T) T {
	switch kind {
	case AggregateSum:
		return a + b
	case AggregateMin:
		if b < a {
			return b
		}
		return a
	case AggregateMax:
		if b > a {
			return b
		}
		return a
	}
	return a
}

func mergeAggregates(parts []map[string]float64, kinds map[string]AggregatorKind) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range parts {
		for name, v := range m {
			if cur, ok := out[name]; ok {
				v = foldAggregate(kinds[name], cur, v)
			}
			out[name] = v
		}
	}
	return out
}

// writeVertices applies the superstep's vertex updates using the
// Update-vs-Replace policy: below updateThreshold's fraction of changed
// tuples the table is updated in place; above it a fresh column set is
// built (the "left join with the new values" of §2.3) and swapped in.
func (c *Coordinator) writeVertices(vt *storage.Table, rowOf map[int64]int,
	updates []vertexUpdate) (changedCount int, usedReplace bool, err error) {

	// Direct table mutation: hold the engine's exclusive latch so no
	// concurrent SQL reader observes a half-applied superstep.
	c.Graph.DB.LockExclusive()
	defer c.Graph.DB.UnlockExclusive()

	changed := updates[:0:0]
	for _, u := range updates {
		if u.changed {
			changed = append(changed, u)
		}
	}
	if len(changed) == 0 {
		return 0, false, nil
	}
	n := vt.NumRows()
	useReplace := float64(len(changed)) > updateThreshold*float64(n)

	if !useReplace {
		idx := make([]int, len(changed))
		vals := make([]storage.Value, len(changed))
		halts := make([]storage.Value, len(changed))
		for i, u := range changed {
			row, ok := rowOf[u.id]
			if !ok {
				return 0, false, fmt.Errorf("core: update for unknown vertex %d", u.id)
			}
			idx[i] = row
			vals[i] = storage.Str(u.value)
			halts[i] = storage.Bool(u.halted)
		}
		if err := vt.UpdateInPlace(idx, 1, vals); err != nil {
			return 0, false, err
		}
		if err := vt.UpdateInPlace(idx, 2, halts); err != nil {
			return 0, false, err
		}
		return len(changed), false, nil
	}

	// Replace: rebuild the vertex table by "left joining" the old rows
	// with the new values, preserving row order.
	byID := make(map[int64]*vertexUpdate, len(changed))
	for i := range changed {
		byID[changed[i].id] = &changed[i]
	}
	old := vt.Data()
	ids := old.Cols[0].(*storage.Int64Column).Int64s()
	newBatch := storage.NewBatch(VertexSchema())
	for i, id := range ids {
		if u, ok := byID[id]; ok {
			if err := newBatch.AppendRow(storage.Int64(id), storage.Str(u.value), storage.Bool(u.halted)); err != nil {
				return 0, false, err
			}
		} else {
			if err := newBatch.AppendRow(old.Row(i)...); err != nil {
				return 0, false, err
			}
		}
	}
	if err := vt.Replace(newBatch); err != nil {
		return 0, false, err
	}
	return len(changed), true, nil
}

// writeMessages replaces the message table with the superstep's
// messages: a merge of the destination partitions' sorted runs, built
// column by column in (dst, src, value) row order before the exclusive
// latch is taken, so concurrent readers stall only for the table swap.
func (c *Coordinator) writeMessages(runs [][]Message) (int, error) {
	mt, err := c.Graph.DB.Catalog().Get(c.Graph.MessageTable())
	if err != nil {
		return 0, err
	}
	src, dst, val := mergeRuns(runs)
	b := &storage.Batch{Schema: MessageSchema(), Cols: []storage.Column{
		storage.NewInt64Column(src), storage.NewInt64Column(dst), storage.NewStringColumn(val),
	}}
	c.Graph.DB.LockExclusive()
	defer c.Graph.DB.UnlockExclusive()
	return len(dst), mt.Replace(b)
}

// Run is the package-level convenience: build a coordinator and run.
func Run(ctx context.Context, g *Graph, prog VertexProgram, opts Options) (*RunStats, error) {
	c := &Coordinator{Graph: g, Program: prog, Opts: opts}
	return c.Run(ctx)
}
