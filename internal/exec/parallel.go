package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/storage"
)

// Morsel-driven parallelism. A stateless pipeline fragment (a stack of
// Filter/Project over a splittable source) is cloned once per worker,
// each clone reading a disjoint contiguous row range ("morsel") of the
// source; a Gather runs the fragments on goroutines and merges their
// batches through bounded channels, emitting them in fragment order so
// a parallel plan produces exactly the rows — in exactly the order — of
// its serial counterpart. A join is cloned per probe morsel over one
// shared build side; HashAggregate parallelizes internally (see
// aggregate.go); the planner decides where fragments are inserted.

// MinMorselRows is the row count below which splitting a source is not
// worth the goroutine and channel overhead. A source is divided into at
// most rows/MinMorselRows fragments. It is a variable so tests can
// force parallel execution on small inputs.
var MinMorselRows = 2048

// gatherBuffer is the per-fragment bounded channel capacity, in
// batches. Fragments run ahead of the consumer by at most this much.
const gatherBuffer = 4

// splitParts returns how many fragments to split `rows` rows into,
// given a worker budget. A result below 2 means "do not split".
func splitParts(rows, workers int) int {
	if workers < 2 || rows < 2*MinMorselRows {
		return 1
	}
	k := rows / MinMorselRows
	if k > workers {
		k = workers
	}
	return k
}

// gatherItem is one message from a fragment goroutine to the Gather.
type gatherItem struct {
	batch *storage.Batch
	err   error
}

// Gather runs its fragment operators concurrently on a worker pool and
// emits their batches in fragment order (fragment 0's whole output,
// then fragment 1's, ...). Because the planner assigns fragments
// contiguous, in-order morsels, this reproduces the serial row order
// exactly — parallel execution is row-for-row deterministic at ANY
// pool size, so the global worker budget can shrink the pool under
// load without changing results. Each fragment pushes through a
// bounded channel, so fragments compute ahead concurrently while the
// consumer drains them in order.
//
// Pool sizing: one goroutine is the statement's own entitlement; up to
// len(Fragments)-1 extras come from Budget (nil = unlimited). Pool
// workers claim fragment indexes in order, which keeps the assigned
// set a contiguous prefix — the consumer can therefore never wait on a
// fragment that no worker will reach (no deadlock at any pool size).
// When the budget grants no extra worker, the entitlement is the
// caller's own goroutine: the fragments run one after another inside
// Next, with no pool, channels or hand-offs between goroutines.
type Gather struct {
	Fragments []Operator
	// Budget is the shared extra-worker budget (nil = unlimited).
	Budget *sched.Budget

	fragShared

	chans   []chan gatherItem
	stop    chan struct{}
	next    atomic.Int64 // next unclaimed fragment index
	granted int          // budget slots held while running
	cur     int
	wg      sync.WaitGroup
	running bool
	inline  bool // no slot granted: fragments run inside Next
	curOpen bool // inline: fragment cur is open
	stats   OpStats
}

// fragShared is the state a Gather's fragments share.
type fragShared struct {
	// spools feed SpoolPart fragments; Close aborts them so blocked
	// parts (and the spool producer goroutine) unwind before the pool
	// is joined.
	spools []*spool
	// builds are the build sides of join clones; Close releases them
	// once the pool has exited, so the next Open rebuilds.
	builds []*joinBuild
}

// Schema implements Operator.
func (g *Gather) Schema() storage.Schema { return g.Fragments[0].Schema() }

// OpStats implements Instrumented.
func (g *Gather) OpStats() *OpStats { return &g.stats }

// PoolSize reports the worker-pool size of the latest Open (its own
// entitlement plus whatever the budget granted).
func (g *Gather) PoolSize() int { return 1 + g.granted }

// Open implements Operator: it launches the fragment worker pool.
func (g *Gather) Open() error {
	t0 := g.stats.begin()
	err := g.open()
	g.stats.opened(t0)
	return err
}

func (g *Gather) open() error {
	for _, sp := range g.spools {
		sp.rearm() // clear a prior Close's abort before workers start
	}
	g.cur = 0
	g.running = true
	g.granted = g.Budget.TryAcquire(len(g.Fragments) - 1)
	g.inline = g.granted == 0
	if g.inline {
		return nil
	}
	g.stop = make(chan struct{})
	g.next.Store(0)
	g.chans = make([]chan gatherItem, len(g.Fragments))
	for i := range g.Fragments {
		g.chans[i] = make(chan gatherItem, gatherBuffer)
	}
	pool := 1 + g.granted
	g.wg.Add(pool)
	for w := 0; w < pool; w++ {
		go func() {
			defer g.wg.Done()
			for {
				select {
				case <-g.stop:
					return
				default:
				}
				i := int(g.next.Add(1)) - 1
				if i >= len(g.Fragments) {
					return
				}
				g.run(i)
			}
		}()
	}
	return nil
}

// run drives one fragment to completion, pushing its batches into the
// fragment's channel. It aborts promptly when the Gather is closed.
func (g *Gather) run(i int) {
	out := g.chans[i]
	defer close(out)
	send := func(it gatherItem) bool {
		select {
		case out <- it:
			return true
		case <-g.stop:
			return false
		}
	}
	frag := g.Fragments[i]
	if err := frag.Open(); err != nil {
		send(gatherItem{err: err})
		return
	}
	defer frag.Close()
	for {
		b, err := frag.Next()
		if err != nil {
			send(gatherItem{err: err})
			return
		}
		if b == nil {
			return
		}
		if !send(gatherItem{batch: b}) {
			return
		}
	}
}

// Next implements Operator.
func (g *Gather) Next() (*storage.Batch, error) {
	t0 := g.stats.begin()
	b, err := g.nextBatch()
	g.stats.record(t0, b)
	return b, err
}

func (g *Gather) nextBatch() (*storage.Batch, error) {
	if g.inline {
		return g.nextInline()
	}
	for g.cur < len(g.chans) {
		it, ok := <-g.chans[g.cur]
		if !ok {
			g.cur++
			continue
		}
		if it.err != nil {
			return nil, it.err
		}
		return it.batch, nil
	}
	return nil, nil
}

// nextInline drives the fragments in order on the caller's goroutine,
// opening and closing each the way a pool worker does.
func (g *Gather) nextInline() (*storage.Batch, error) {
	for g.cur < len(g.Fragments) {
		frag := g.Fragments[g.cur]
		if !g.curOpen {
			if err := frag.Open(); err != nil {
				return nil, err
			}
			g.curOpen = true
		}
		b, err := frag.Next()
		if err != nil || b != nil {
			return b, err
		}
		g.curOpen = false
		frag.Close()
		g.cur++
	}
	return nil, nil
}

// Close implements Operator: it signals all fragments to stop, aborts
// any shared spools (waking parts blocked on them), waits for the pool
// to exit, and returns the borrowed budget slots.
func (g *Gather) Close() error {
	g.stats.closed()
	if !g.running {
		return nil
	}
	g.running = false
	if g.curOpen {
		g.Fragments[g.cur].Close()
		g.curOpen = false
	}
	if g.stop != nil {
		close(g.stop)
	}
	for _, sp := range g.spools {
		sp.abort()
	}
	g.wg.Wait()
	for _, b := range g.builds {
		b.release()
	}
	g.Budget.Release(g.granted)
	g.granted = 0
	g.chans = nil
	g.stop = nil
	return nil
}

// spoolLeadRows bounds how far the spool producer runs ahead of what
// part 0's reader has consumed, in rows. Combined with part 0 being
// the first fragment the Gather consumer drains, this keeps the base
// operator's un-consumed output O(batch) instead of O(result): an
// early-exiting consumer (LIMIT) stalls the producer after a bounded
// overshoot instead of paying for a full drain.
var spoolLeadRows = gatherBuffer * storage.BatchSize

// errSpoolAborted unwinds SpoolPart readers when their Gather closes
// mid-stream; the Gather drops the error on the floor (its stop
// channel is already closed).
var errSpoolAborted = fmt.Errorf("exec: spool aborted")

// spool runs an operator that cannot itself be split (a join or an
// aggregate) once, incrementally, and serves its output to several
// SpoolPart readers so a Filter/Project stack above it still runs in
// parallel. The base drains on a dedicated producer goroutine into a
// shared batch list; part 0 — the first fragment the Gather consumer
// reads — streams rows as soon as their final part assignment is
// certain (row r belongs to part 0 for any final total once
// r·parts < rows seen), while later parts wait for the drain to finish
// before their row range [part·n/parts, (part+1)·n/parts) is known.
// The producer blocks once it runs spoolLeadRows ahead of part 0's
// reader, so an abandoned statement stops pulling from the base after
// a bounded overshoot.
//
// The retained batch list is memory-accounted: each appended batch is
// reserved against the statement grant, and the first denied
// reservation freezes the in-memory prefix and routes every later
// batch into a disk overflow run. Rows below memRows are served from
// memory, rows at or above it are decoded from the run's frames — the
// row numbering (and therefore every part's range and order) is
// identical either way.
type spool struct {
	input Operator
	parts int
	mem   *sched.MemBudget
	fs    storage.SpillFS

	mu        sync.Mutex
	cond      *sync.Cond
	started   bool // producer launched for the current pass
	producing bool // producer goroutine still running
	done      bool // base fully drained without error
	aborted   bool
	err       error
	batches   []*storage.Batch
	starts    []int // starts[i] = global row offset of batches[i]
	rows      int
	consumed0 int // rows part 0 has emitted (producer backpressure gauge)

	mt         memTracker
	dw         *storage.RunWriter // disk overflow, while producing
	drun       *storage.SpillRun  // sealed overflow, after the drain
	memRows    int                // rows retained in memory; the rest are on disk
	spillBytes int64
	spillRuns  int64
}

// frameReader is the part of RunWriter and SpillRun the spool needs to
// serve overflow rows: random access to sealed frames.
type frameReader interface {
	Frames() int
	FrameRows(i int) int
	FrameStart(i int) int64
	ReadFrame(i int) (*storage.Batch, error)
}

// overflow returns the disk side of the spool, if any: the in-progress
// writer while producing, the sealed run after. Callers hold s.mu.
func (s *spool) overflow() frameReader {
	if s.drun != nil {
		return s.drun
	}
	if s.dw != nil {
		return s.dw
	}
	return nil
}

// activate ensures the producer goroutine is running (or the data is
// already complete). On an aborted spool it does nothing: abort is
// sticky until the owning Gather re-arms the spool in its next Open,
// so a straggler pool worker that claims a fragment while Close is in
// flight cannot revive the producer.
func (s *spool) activate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
	if !s.aborted && !s.started {
		s.started = true
		s.producing = true
		go s.produce()
	}
}

// rearm clears an abort before a fresh Gather.Open: a completed drain
// is kept and served from memory; an interrupted one is discarded so
// the next activate replays the base from scratch. Only the Gather
// consumer calls it, strictly before any pool worker runs.
func (s *spool) rearm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.aborted {
		return
	}
	if s.done {
		s.aborted = false // data complete; serve from memory
		return
	}
	for s.producing {
		s.cond.Wait()
	}
	s.drun.Close()
	s.drun = nil
	s.batches, s.starts, s.rows, s.consumed0, s.memRows = nil, nil, 0, 0, 0
	s.started, s.aborted, s.err = false, false, nil
}

// abort stops the producer and wakes every blocked reader. It is
// sticky: until rearm, parts neither block nor restart the producer —
// they fail fast with errSpoolAborted. Memory reservations are
// returned here (the statement's grant dies with the statement);
// retained batches a later rearm keeps ride along unreserved, like
// any other cached-plan state.
func (s *spool) abort() {
	s.mu.Lock()
	if s.cond == nil {
		s.cond = sync.NewCond(&s.mu)
	}
	s.aborted = true
	s.cond.Broadcast()
	for s.producing {
		s.cond.Wait()
	}
	s.mt.releaseAll()
	if s.drun != nil {
		// The overflow run is a spill file, and spill files must not
		// outlive their statement: an idle cached plan holding a run
		// would pin temp_file_limit budget and spill-dir bytes
		// indefinitely. Dropping the disk tail leaves the retained
		// pass incomplete, so all of it goes and the next Open
		// replays the base — only in-memory completed drains are kept
		// across checkouts.
		s.drun.Close()
		s.drun = nil
		s.batches, s.starts, s.rows, s.consumed0, s.memRows = nil, nil, 0, 0, 0
		s.started, s.done, s.err = false, false, nil
	}
	s.mu.Unlock()
}

// reset discards everything the spool retained — batches, overflow
// run, completion state — so a cached plan checked out for a new
// statement replays its base with fresh parameter bindings.
func (s *spool) reset() {
	s.abort()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drun.Close()
	s.drun = nil
	s.batches, s.starts, s.rows, s.consumed0, s.memRows = nil, nil, 0, 0, 0
	s.started, s.done, s.err = false, false, nil
}

// produce drains the base operator, appending batches under the lock
// and blocking while more than spoolLeadRows of part 0's share sit
// unconsumed. The base is fully closed before endProduce publishes
// completion, so abort/activate never overlap an in-flight Close.
func (s *spool) produce() {
	if err := s.input.Open(); err != nil {
		s.endProduce(err)
		return
	}
	var ferr error
	for {
		s.mu.Lock()
		for !s.aborted && s.rows/s.parts-s.consumed0 >= spoolLeadRows {
			s.cond.Wait()
		}
		aborted := s.aborted
		s.mu.Unlock()
		if aborted {
			break
		}
		b, err := s.input.Next()
		if err != nil || b == nil {
			ferr = err
			break
		}
		if b.Len() == 0 {
			continue
		}
		if err := s.append(b); err != nil {
			ferr = err
			break
		}
	}
	s.input.Close()
	s.endProduce(ferr)
}

// append publishes one produced batch. It stays in memory while the
// reservation succeeds; the first denial (with at least one batch
// already retained — the working floor) freezes the in-memory prefix
// and starts a disk overflow run that every later batch goes to.
func (s *spool) append(b *storage.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dw == nil && !s.mt.reserve(storage.BatchBytes(b)) && s.rows > 0 {
		w, err := storage.NewRunWriter(s.fs, b.Schema)
		if err != nil {
			return err
		}
		s.dw = w
		s.memRows = s.rows
	}
	if s.dw != nil {
		if err := s.dw.Write(b); err != nil {
			return err
		}
	} else {
		s.starts = append(s.starts, s.rows)
		s.batches = append(s.batches, b)
	}
	s.rows += b.Len()
	s.cond.Broadcast()
	return nil
}

// endProduce publishes the producer's exit: the error (if any), the
// completion flag, and the wake-up for every blocked reader. A clean
// exit seals the overflow run so readers switch from the writer's
// frames to the sealed run; any other exit discards it.
func (s *spool) endProduce(err error) {
	s.mu.Lock()
	if s.dw != nil {
		if err == nil && !s.aborted {
			run, ferr := s.dw.Finish()
			if ferr != nil {
				err = ferr
			} else {
				s.drun = run
				s.spillBytes += run.Bytes()
				s.spillRuns++
			}
		} else {
			s.dw.Abort()
		}
		s.dw = nil
	}
	if err != nil {
		s.err = err
	} else if !s.aborted {
		s.done = true
	}
	s.producing = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// SpoolPart reads rows [part*rows/parts, (part+1)*rows/parts) of a
// shared spool. Parts are safe to Open and iterate concurrently; part
// 0 streams while the base is still producing.
type SpoolPart struct {
	sp          *spool
	schema      storage.Schema
	part, parts int

	pos   int // next global row to emit (-1 = range not yet known)
	cur   int // in-memory batch index hint
	dcur  int // overflow frame index hint
	stats OpStats
}

// SpillStats reports the shared spool's overflow so far (bytes and
// runs written to disk); EXPLAIN ANALYZE surfaces it on part 0.
func (p *SpoolPart) SpillStats() (bytes, runs int64) {
	p.sp.mu.Lock()
	defer p.sp.mu.Unlock()
	return p.sp.spillBytes, p.sp.spillRuns
}

// Part returns this part's index within the spool.
func (p *SpoolPart) Part() int { return p.part }

// Schema implements Operator.
func (p *SpoolPart) Schema() storage.Schema { return p.schema }

// OpStats implements Instrumented.
func (p *SpoolPart) OpStats() *OpStats { return &p.stats }

// Spooled returns the operator feeding this part's shared spool
// (EXPLAIN descends through it).
func (p *SpoolPart) Spooled() Operator { return p.sp.input }

// Open implements Operator.
func (p *SpoolPart) Open() error {
	t0 := p.stats.begin()
	p.sp.activate()
	p.pos, p.cur, p.dcur = -1, 0, 0
	if p.part == 0 {
		p.pos = 0
	}
	p.stats.opened(t0)
	return nil
}

// Next implements Operator: it emits the slices of the spooled batches
// that overlap this part's row range, in order, blocking until the
// next slice is certain to belong to this part.
func (p *SpoolPart) Next() (*storage.Batch, error) {
	t0 := p.stats.begin()
	b, err := p.next()
	p.stats.record(t0, b)
	return b, err
}

func (p *SpoolPart) next() (*storage.Batch, error) {
	s := p.sp
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil {
			return nil, s.err
		}
		if s.aborted {
			return nil, errSpoolAborted
		}
		var hi int
		switch {
		case s.done:
			if p.pos < 0 {
				p.pos = p.part * s.rows / p.parts
			}
			hi = (p.part + 1) * s.rows / p.parts
		case p.part == 0:
			hi = s.rows / p.parts // certain prefix of part 0
		default:
			s.cond.Wait() // later parts wait for the final row count
			continue
		}
		if p.pos >= hi {
			if s.done {
				return nil, nil
			}
			s.cond.Wait()
			continue
		}
		var (
			b     *storage.Batch
			start int
		)
		if fr := s.overflow(); fr != nil && p.pos >= s.memRows {
			// Overflow rows: decode the frame holding p.pos. The frame
			// exists — s.rows (and so hi) only advances after its batch
			// is fully written.
			rel := int64(p.pos - s.memRows)
			for p.dcur < fr.Frames() && fr.FrameStart(p.dcur)+int64(fr.FrameRows(p.dcur)) <= rel {
				p.dcur++
			}
			db, err := fr.ReadFrame(p.dcur)
			if err != nil {
				return nil, err
			}
			b, start = db, s.memRows+int(fr.FrameStart(p.dcur))
		} else {
			for p.cur < len(s.batches) && s.starts[p.cur]+s.batches[p.cur].Len() <= p.pos {
				p.cur++
			}
			b, start = s.batches[p.cur], s.starts[p.cur]
		}
		from, to := p.pos-start, hi-start
		if to > b.Len() {
			to = b.Len()
		}
		p.pos = start + to
		if p.part == 0 && p.pos > s.consumed0 {
			s.consumed0 = p.pos
			s.cond.Broadcast() // wake the producer past the lead window
		}
		if from == 0 && to == b.Len() {
			return b, nil
		}
		return b.Slice(from, to), nil
	}
}

// Close implements Operator. The shared spool is not released: sibling
// parts (and a re-Open) may still need it; the owning Gather aborts it.
func (p *SpoolPart) Close() error {
	p.stats.closed()
	return nil
}

// Parallelize rewrites op into a Gather over per-morsel fragment
// clones when op is a stack of stateless operators (Filter, Project)
// over a splittable source — a TableScan, a BatchSource, an existing
// Gather (whose fragments are adopted and re-wrapped), a join whose
// probe input splits, or an aggregate whose output is spooled. It
// returns op unchanged when workers < 2 or no profitable split exists.
// The rewrite preserves row order exactly (see Gather), so serial and
// parallel plans produce identical results.
func Parallelize(op Operator, workers int) Operator {
	return ParallelizeBudget(op, workers, nil)
}

// ParallelizeBudget is Parallelize with a shared extra-worker budget
// installed on the resulting Gather (nil = unlimited).
func ParallelizeBudget(op Operator, workers int, budget *sched.Budget) Operator {
	return ParallelizeMem(op, workers, budget, nil)
}

// ParallelizeMem is ParallelizeBudget with a statement memory grant
// installed on any spools the rewrite creates, so a spooled join or
// aggregate result overflows to disk instead of buffering without
// bound (nil = unaccounted).
func ParallelizeMem(op Operator, workers int, budget *sched.Budget, mem *sched.MemBudget) Operator {
	if workers < 2 {
		return op
	}
	var sh fragShared
	frags, ok := splitFragment(op, workers, 0, &sh, mem)
	if !ok || len(frags) < 2 {
		return op
	}
	return &Gather{Fragments: frags, Budget: budget, fragShared: sh}
}

// clonedJoin is a join that splitFragment clones once per probe morsel:
// HashJoin and NestedLoopJoin.
type clonedJoin interface {
	Operator
	inputs() (left, right Operator)
	build() *joinBuild
	clone(left Operator, b *joinBuild) clonedJoin
}

// splitFragment clones the operator stack rooted at op into per-morsel
// fragments, recording any state the fragments share (spools, join
// builds) that it creates or adopts in *sh for the owning Gather.
// depth counts the operators above op: a bare source with nothing to
// compute is not worth a Gather.
func splitFragment(op Operator, workers, depth int, sh *fragShared, mem *sched.MemBudget) ([]Operator, bool) {
	switch o := op.(type) {
	case *TableScan:
		if depth == 0 || o.NoSplit {
			return nil, false
		}
		// Shard-wise morselization: a scan over a multi-shard table is
		// split along shard boundaries first — every morsel stays inside
		// one shard and carries its own cursor, so fragments share no
		// scan state (and, later, no process). Large shards split
		// further into contiguous morsels; fragment order is shard-major
		// to preserve the serial scan's row order through Gather.
		if sh, ok := o.Table.(storage.Sharded); ok && sh.NumShards() > 1 && o.Shard == 0 {
			if splitParts(o.Table.NumRows(), workers) < 2 {
				return nil, false
			}
			var out []Operator
			for s := 0; s < sh.NumShards(); s++ {
				rows := sh.ShardRows(s)
				// A shard that is empty now still gets one (unsplit)
				// fragment: the morsel bounds are recomputed from live row
				// counts at Open, and a cached plan may run again after
				// rows land in a shard that was empty at plan time.
				k := splitParts(rows, workers)
				if k < 2 {
					out = append(out, &TableScan{Table: o.Table, OutSchema: o.OutSchema, Shard: s + 1})
					continue
				}
				for i := 0; i < k; i++ {
					out = append(out, &TableScan{Table: o.Table, OutSchema: o.OutSchema, Shard: s + 1, part: i, parts: k})
				}
			}
			if len(out) < 2 {
				return nil, false
			}
			return out, true
		}
		rows := o.Table.NumRows()
		if sh, ok := o.Table.(storage.Sharded); ok && o.Shard > 0 {
			rows = sh.ShardRows(o.Shard - 1)
		}
		n := splitParts(rows, workers)
		if n < 2 {
			return nil, false
		}
		out := make([]Operator, n)
		for i := range out {
			out[i] = &TableScan{Table: o.Table, OutSchema: o.OutSchema, Shard: o.Shard, part: i, parts: n}
		}
		return out, true
	case *BatchSource:
		if depth == 0 {
			return nil, false
		}
		n := splitParts(o.Data.Len(), workers)
		if n < 2 {
			return nil, false
		}
		out := make([]Operator, n)
		for i := range out {
			out[i] = &BatchSource{Data: o.Data, part: i, parts: n}
		}
		return out, true
	case *Gather:
		// Already parallel: adopt its fragments (and shared state) so
		// the caller's stack is fused into each of them.
		sh.spools = append(sh.spools, o.spools...)
		sh.builds = append(sh.builds, o.builds...)
		return o.Fragments, true
	case *Filter:
		kids, ok := splitFragment(o.Input, workers, depth+1, sh, mem)
		if !ok {
			return nil, false
		}
		out := make([]Operator, len(kids))
		for i, k := range kids {
			out[i] = &Filter{Input: k, Pred: o.Pred}
		}
		return out, true
	case *Project:
		kids, ok := splitFragment(o.Input, workers, depth+1, sh, mem)
		if !ok {
			return nil, false
		}
		out := make([]Operator, len(kids))
		for i, k := range kids {
			out[i] = &Project{Input: k, Exprs: o.Exprs, Out: o.Out}
		}
		return out, true
	case clonedJoin:
		// One join clone per probe morsel, every clone reading one
		// shared build side that the first clone to open builds.
		left, _ := o.inputs()
		kids, ok := splitFragment(left, workers, depth+1, sh, mem)
		if !ok {
			return nil, false
		}
		b := &joinBuild{}
		sh.builds = append(sh.builds, b)
		out := make([]Operator, len(kids))
		for i, k := range kids {
			c := o.clone(k, b)
			b.clones = append(b.clones, c)
			out[i] = c
		}
		return out, true
	case *HashAggregate:
		// The base cannot be split, but its output can: run it once
		// into a spool and divide the result into morsels, so the
		// Filter/Project stack above still runs on all workers.
		if depth == 0 {
			return nil, false
		}
		sp := &spool{input: op, parts: workers, mem: mem, mt: memTracker{mem: mem}}
		sh.spools = append(sh.spools, sp)
		out := make([]Operator, workers)
		for i := range out {
			out[i] = &SpoolPart{sp: sp, schema: op.Schema(), part: i, parts: workers}
		}
		return out, true
	}
	return nil, false
}
