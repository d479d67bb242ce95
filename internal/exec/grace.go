package exec

import (
	"sync/atomic"

	"repro/internal/storage"
)

// Grace hash join: when the build side outgrows the memory grant, both
// inputs are hash-partitioned on the join key into on-disk runs —
// spillParts partitions per level, 4 hash bits each — and each left
// partition is probed against its right partition with a
// partition-sized hash table. A partition that still does not fit
// repartitions on the next 4 bits, up to maxGraceLevels, after which it
// proceeds unreserved (the working floor: a key set so skewed that
// three levels cannot split it would otherwise never run).
//
// Byte-identity with the in-memory join is carried by a row index: each
// left row takes its global input position into the partitions (as the
// run's last column, keeping key indices valid) and into the result
// runs (as the first column). Probing a partition visits left rows in
// ascending index order and emits matches in ascending build order, so
// each result run is index-sorted; a K-way merge by index across the
// result runs reproduces the serial probe output exactly, then strips
// the index column.
//
// Every phase moves columns: key hashes are computed column by column,
// partitions are filled by Gather, a partition is probed into (left,
// right) index pairs that are gathered once per output batch, and the
// merge builds each output column with one multi-source gather.

// maxGraceLevels caps recursive repartitioning; level 0 is the initial
// split, deeper levels use successively higher hash bits.
const maxGraceLevels = 3

// gracePartOf routes a key hash to its partition at the given level.
func gracePartOf(h uint64, level int) int {
	return int((h >> (4 * uint(level))) % spillParts)
}

func (j *HashJoin) fs() storage.SpillFS {
	if j.FS != nil {
		return j.FS
	}
	return storage.DefaultSpillFS
}

// graceOutSchema is the result-run schema: the row index first, then
// the join's output columns.
func (j *HashJoin) graceOutSchema() storage.Schema {
	cols := make([]storage.ColumnDef, 0, j.out.Len()+1)
	cols = append(cols, storage.Col("__idx", storage.TypeInt64))
	cols = append(cols, j.out.Cols...)
	return storage.NewSchema(cols...)
}

// openGrace partitions the probe input and probes each partition
// against the build's partition run of the same hash bits; afterwards
// Next merges the result runs by row index. A spilled join runs
// serially, as an unsplit one would: the first clone of a cloned join
// partitions every clone's probe input, in fragment order, and the
// other clones emit nothing — per-clone Grace joins would each re-read
// every build partition and compete for the one grant.
func (j *HashJoin) openGrace(b *joinBuild) error {
	ins := []Operator{j.Left}
	if b.clones != nil {
		if b.clones[0] != clonedJoin(j) {
			j.ldone = true
			return nil
		}
		ins = ins[:0]
		for _, c := range b.clones {
			left, _ := c.inputs()
			ins = append(ins, left)
		}
	}
	lruns, err := j.partitionLeft(ins)
	if err != nil {
		return err
	}
	var results []*storage.SpillRun
	for k := 0; k < spillParts; k++ {
		if err := j.graceProbe(lruns[k], b.runs[k], 1, &results); err != nil {
			closeRuns(lruns[k+1:])
			closeRuns(results)
			return err
		}
	}
	g, err := newGraceState(results)
	if err != nil {
		closeRuns(results)
		return err
	}
	j.grace = g
	return nil
}

func closeRuns(runs []*storage.SpillRun) {
	for _, r := range runs {
		r.Close()
	}
}

// partitionRight routes the buffered build prefix plus the rest of the
// right stream into level-0 partition runs, counting the streamed rows
// in rows. NULL-key rows are dropped here — they can never match.
func (j *HashJoin) partitionRight(prefix *storage.Batch, rows *atomic.Int64) ([spillParts]*storage.SpillRun, error) {
	p := spillPartitioner{fs: j.fs(), schema: j.Right.Schema()}
	var kh keyHashes
	route := func(b *storage.Batch) error {
		kh.of(b, j.RightKeys)
		for k, rows := range kh.route(0, false) {
			if len(rows) > 0 {
				if err := p.add(k, b.Gather(rows)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	fail := func(err error) ([spillParts]*storage.SpillRun, error) {
		p.abort()
		j.Right.Close()
		return [spillParts]*storage.SpillRun{}, err
	}
	for pos := 0; ; {
		b := NextChunk(prefix, &pos, prefix.Len())
		if b == nil {
			break
		}
		if err := route(b); err != nil {
			return fail(err)
		}
	}
	for {
		b, err := j.Right.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		rows.Add(int64(b.Len()))
		if err := route(b); err != nil {
			return fail(err)
		}
	}
	if err := j.Right.Close(); err != nil {
		p.abort()
		return [spillParts]*storage.SpillRun{}, err
	}
	return p.finish(&j.stats)
}

// partitionLeft streams the left inputs, one after another, into
// level-0 partition runs, appending each row's global input index as
// the last column. NULL-key rows of a left join ride partition 0 (they
// match nothing and come back NULL-padded); under an inner join they
// are dropped.
func (j *HashJoin) partitionLeft(ins []Operator) ([spillParts]*storage.SpillRun, error) {
	ext := withIdx(j.Left.Schema())
	p := spillPartitioner{fs: j.fs(), schema: ext}
	var kh keyHashes
	offset := int64(0)
	for _, in := range ins {
		if err := j.partitionInput(in, &p, &kh, &offset, ext); err != nil {
			p.abort()
			return [spillParts]*storage.SpillRun{}, err
		}
	}
	return p.finish(&j.stats)
}

// partitionInput routes one left input into p, advancing offset.
func (j *HashJoin) partitionInput(in Operator, p *spillPartitioner, kh *keyHashes, offset *int64, ext storage.Schema) error {
	if err := in.Open(); err != nil {
		return err
	}
	for {
		b, err := in.Next()
		if err != nil {
			in.Close()
			return err
		}
		if b == nil {
			return in.Close()
		}
		j.probeRows.Add(int64(b.Len()))
		kh.of(b, j.LeftKeys)
		for k, rows := range kh.route(0, j.Type == LeftJoin) {
			if len(rows) > 0 {
				if err := p.add(k, tagRows(b, rows, *offset, ext)); err != nil {
					in.Close()
					return err
				}
			}
		}
		*offset += int64(b.Len())
	}
}

// graceProbe joins one left partition against its right partition,
// appending an index-sorted result run to results. Both input runs are
// closed before it returns, except a level-1 right run, which belongs
// to the build. A right partition that does not fit the grant
// recurses one level; at the deepest level it proceeds unreserved.
func (j *HashJoin) graceProbe(lrun, rrun *storage.SpillRun, level int, results *[]*storage.SpillRun) error {
	defer lrun.Close()
	if level > 1 {
		defer rrun.Close()
	}
	if lrun == nil || lrun.Rows() == 0 {
		return nil // no probe rows: neither matches nor pads can exist
	}
	mt := memTracker{mem: j.Mem}
	defer mt.releaseAll()
	rpart := storage.NewBatch(j.Right.Schema())
	if rrun != nil {
		rr := rrun.Reader()
		for {
			b, err := rr.Next()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if !mt.reserve(storage.BatchBytes(b)) && level < maxGraceLevels {
				mt.releaseAll()
				return j.graceRecurse(lrun, rrun, level, results)
			}
			if err := storage.Concat(rpart, b); err != nil {
				return err
			}
		}
	}
	table := newJoinTable(rpart, j.RightKeys, j.exactKeys(), 1, nil)
	oschema := j.graceOutSchema()
	w, err := storage.NewRunWriter(j.fs(), oschema)
	if err != nil {
		return err
	}
	ls := j.Left.Schema()
	var side probeSide
	lr := lrun.Reader()
	for {
		b, err := lr.Next()
		if err != nil {
			w.Abort()
			return err
		}
		if b == nil {
			break
		}
		nl := len(b.Cols) - 1
		idxs := b.Cols[nl]
		j.setProbeSide(&side, &storage.Batch{Schema: ls, Cols: b.Cols[:nl]}, table)
		for side.row < b.Len() {
			out, lrows, err := j.probe(&side, table)
			if err != nil {
				w.Abort()
				return err
			}
			if out.Len() == 0 {
				continue
			}
			cols := append([]storage.Column{idxs.Gather(lrows)}, out.Cols...)
			if err := w.Write(&storage.Batch{Schema: oschema, Cols: cols}); err != nil {
				w.Abort()
				return err
			}
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	if run.Frames() == 0 {
		return run.Close() // nothing matched: drop the empty run
	}
	j.stats.spilled(run)
	*results = append(*results, run)
	return nil
}

// graceRecurse splits both partition runs on the next 4 hash bits and
// probes each sub-pair. The parent runs are closed by graceProbe's
// defers after this returns.
func (j *HashJoin) graceRecurse(lrun, rrun *storage.SpillRun, level int, results *[]*storage.SpillRun) error {
	rsub, err := j.repartitionRun(rrun, level, j.RightKeys, false)
	if err != nil {
		return err
	}
	lsub, err := j.repartitionRun(lrun, level, j.LeftKeys, true)
	if err != nil {
		closeRuns(rsub[:])
		return err
	}
	for k := 0; k < spillParts; k++ {
		if err := j.graceProbe(lsub[k], rsub[k], level+1, results); err != nil {
			closeRuns(lsub[k+1:])
			closeRuns(rsub[k+1:])
			return err
		}
	}
	return nil
}

// repartitionRun splits a run by the hash bits of the given level. Left
// runs carry their __idx as the last column, so the key indices stay
// valid; their NULL-key rows (left-join pads-to-be) stay in
// sub-partition 0.
func (j *HashJoin) repartitionRun(run *storage.SpillRun, level int, keys []int, isLeft bool) ([spillParts]*storage.SpillRun, error) {
	p := spillPartitioner{fs: j.fs(), schema: run.Schema()}
	var kh keyHashes
	rr := run.Reader()
	for {
		b, err := rr.Next()
		if err != nil {
			p.abort()
			return [spillParts]*storage.SpillRun{}, err
		}
		if b == nil {
			break
		}
		kh.of(b, keys)
		for k, rows := range kh.route(level, isLeft) {
			if len(rows) > 0 {
				if err := p.add(k, b.Gather(rows)); err != nil {
					p.abort()
					return [spillParts]*storage.SpillRun{}, err
				}
			}
		}
	}
	return p.finish(&j.stats)
}

// graceState is the K-way merge cursor over the index-sorted result
// runs. Each run's frames stream in one at a time; the merge picks the
// run with the smallest head index (indexes are unique to a run, and a
// left row's several output rows sit consecutively in one run), so
// output rows appear in global left-input order.
type graceState struct {
	runs []*storage.SpillRun
	cur  []*storage.Batch
	pos  []int
	idxs [][]int64
	next []int
}

func newGraceState(runs []*storage.SpillRun) (*graceState, error) {
	g := &graceState{
		runs: runs,
		cur:  make([]*storage.Batch, len(runs)),
		pos:  make([]int, len(runs)),
		idxs: make([][]int64, len(runs)),
		next: make([]int, len(runs)),
	}
	for i := range runs {
		if err := g.load(i); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// load pulls run i's next frame into the cursor (nil at end of run).
func (g *graceState) load(i int) error {
	g.cur[i], g.pos[i] = nil, 0
	if g.next[i] >= g.runs[i].Frames() {
		return nil
	}
	b, err := g.runs[i].ReadFrame(g.next[i])
	if err != nil {
		return err
	}
	g.next[i]++
	g.cur[i] = b
	g.idxs[i] = b.Cols[0].(*storage.Int64Column).Int64s()
	return nil
}

// graceNextBatch serves the next merged batch of the Grace result,
// stripping the index column. It picks (frame, row) pairs — taking from
// the run with the smallest head index every row whose index stays
// below the other runs' heads — and then gathers each output column
// from the picked frames in one pass.
func (j *HashJoin) graceNextBatch() (*storage.Batch, error) {
	g := j.grace
	var frames []*storage.Batch
	slot := make([]int32, len(g.runs)) // run -> its current frame in frames
	for r, b := range g.cur {
		if b != nil {
			slot[r] = int32(len(frames))
			frames = append(frames, b)
		}
	}
	picks := make([]storage.SourceRow, 0, storage.BatchSize)
	for len(picks) < storage.BatchSize {
		best, second := -1, -1
		for r := range g.runs {
			if g.cur[r] == nil {
				continue
			}
			idx := g.idxs[r][g.pos[r]]
			switch {
			case best < 0 || idx < g.idxs[best][g.pos[best]]:
				best, second = r, best
			case second < 0 || idx < g.idxs[second][g.pos[second]]:
				second = r
			}
		}
		if best < 0 {
			break
		}
		bound := int64(-1) // no other run: take to the frame's end
		if second >= 0 {
			bound = g.idxs[second][g.pos[second]]
		}
		idxs, n := g.idxs[best], g.cur[best].Len()
		for len(picks) < storage.BatchSize && g.pos[best] < n && (bound < 0 || idxs[g.pos[best]] < bound) {
			picks = append(picks, storage.SourceRow{Src: slot[best], Row: int32(g.pos[best])})
			g.pos[best]++
		}
		if g.pos[best] >= n {
			if err := g.load(best); err != nil {
				return nil, err
			}
			if g.cur[best] != nil {
				slot[best] = int32(len(frames))
				frames = append(frames, g.cur[best])
			}
		}
	}
	if len(picks) == 0 {
		return nil, nil
	}
	out := &storage.Batch{Schema: j.out, Cols: make([]storage.Column, j.out.Len())}
	srcs := make([]storage.Column, len(frames))
	for c, def := range j.out.Cols {
		for f, b := range frames {
			srcs[f] = b.Cols[c+1]
		}
		out.Cols[c] = storage.GatherSources(def.Type, srcs, picks)
	}
	return out, nil
}
