package exec

import (
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
// shared build side. HashAggregate parallelizes internally (see
// aggregate.go) and is a pipeline breaker: a Filter/Project above it
// reads its output on the consumer's goroutine. The planner decides
// where fragments are inserted.

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

	// builds are the build sides the fragments' join clones share;
	// Close releases them once the pool has exited, so the next Open
	// rebuilds.
	builds []*joinBuild

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

// Close implements Operator: it signals all fragments to stop, waits
// for the pool to exit, releases the shared join builds, and returns
// the borrowed budget slots.
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

// Parallelize rewrites op into a Gather over per-morsel fragment
// clones when op is a stack of stateless operators (Filter, Project)
// over a splittable source — a TableScan, a BatchSource, an existing
// Gather (whose fragments are adopted and re-wrapped), or a join whose
// probe input splits. A stack over an aggregate is left serial: the
// aggregate folds in parallel itself and its output is read directly.
// budget is the shared extra-worker budget installed on the resulting
// Gather (nil = unlimited). It returns op unchanged when workers < 2
// or no profitable split exists. The rewrite preserves row order
// exactly (see Gather), so serial and parallel plans produce identical
// results.
func Parallelize(op Operator, workers int, budget *sched.Budget) Operator {
	if workers < 2 {
		return op
	}
	var builds []*joinBuild
	frags, ok := splitFragment(op, workers, 0, &builds)
	if !ok || len(frags) < 2 {
		return op
	}
	return &Gather{Fragments: frags, Budget: budget, builds: builds}
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
// fragments, appending the join builds the fragments share, created or
// adopted, to *builds for the owning Gather. depth counts the operators
// above op: a bare source with nothing to compute is not worth a
// Gather.
func splitFragment(op Operator, workers, depth int, builds *[]*joinBuild) ([]Operator, bool) {
	switch o := op.(type) {
	case *TableScan:
		// A routed scan (Shard > 0) is one fragment: a point lookup
		// reads one shard, and splitting it would only contend for the
		// worker budget with other statements.
		if depth == 0 || o.Shard > 0 {
			return nil, false
		}
		// Shard-wise morselization: a scan over a multi-shard table is
		// split along shard boundaries first — every morsel stays inside
		// one shard and carries its own cursor, so fragments share no
		// scan state (and, later, no process). Large shards split
		// further into contiguous morsels; fragment order is shard-major
		// to preserve the serial scan's row order through Gather.
		if sh, ok := o.Table.(storage.Sharded); ok && sh.NumShards() > 1 {
			if splitParts(o.Table.NumRows(), workers) < 2 {
				return nil, false
			}
			var out []Operator
			for s := 0; s < sh.NumShards(); s++ {
				rows := sh.ShardRows(s)
				// A shard too small to split, or empty, keeps one
				// unsplit fragment.
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
		n := splitParts(o.Table.NumRows(), workers)
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
		// Already parallel: adopt its fragments (and shared builds) so
		// the caller's stack is fused into each of them.
		*builds = append(*builds, o.builds...)
		return o.Fragments, true
	case *Filter:
		kids, ok := splitFragment(o.Input, workers, depth+1, builds)
		if !ok {
			return nil, false
		}
		out := make([]Operator, len(kids))
		for i, k := range kids {
			out[i] = &Filter{Input: k, Pred: o.Pred}
		}
		return out, true
	case *Project:
		kids, ok := splitFragment(o.Input, workers, depth+1, builds)
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
		kids, ok := splitFragment(left, workers, depth+1, builds)
		if !ok {
			return nil, false
		}
		b := &joinBuild{}
		*builds = append(*builds, b)
		out := make([]Operator, len(kids))
		for i, k := range kids {
			c := o.clone(k, b)
			b.clones = append(b.clones, c)
			out[i] = c
		}
		return out, true
	}
	return nil, false
}
