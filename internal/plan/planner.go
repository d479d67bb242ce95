package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Planner lowers SQL statements to executor plans.
type Planner struct {
	Catalog *catalog.Catalog
	Funcs   *expr.Registry
	// Parallelism is the per-statement executor worker budget: the
	// planner rewrites stateless scan→filter→project fragments into
	// morsel-parallel Gather pipelines and sets the worker count on
	// hash joins and aggregates (see internal/exec/parallel.go).
	// 0 or 1 plans today's serial pipelines.
	Parallelism int
	// Budget is the process-wide extra-worker budget installed on every
	// parallel operator this planner emits (nil = unlimited). Operators
	// keep their caller's goroutine for free and draw extras from it,
	// so concurrent statements share cores instead of oversubscribing.
	Budget *sched.Budget
	// Mem is the process-wide executor memory pool (nil = unlimited).
	// Each statement plans against a child grant capped at WorkMem that
	// draws down this pool; blocking operators reserve from the grant
	// and spill to disk when a reservation is denied.
	Mem *sched.MemBudget
	// WorkMem is the per-statement memory grant in bytes (0 =
	// unlimited). The engine plans each statement on a copy of its
	// planner carrying the session's work_mem.
	WorkMem int64
}

// New returns a planner over the given catalog and function registry.
func New(cat *catalog.Catalog, funcs *expr.Registry) *Planner {
	return &Planner{Catalog: cat, Funcs: funcs}
}

// SerialLimitMax is the largest LIMIT+OFFSET the planner keeps serial
// and streaming for early exit. A limit needing at most this many rows
// reads O(limit) from its sources on one worker; a larger limit keeps
// the parallel (materializing) plan, whose fan-out amortizes over the
// bigger result.
var SerialLimitMax = int64(8 * 1024)

// TableSource resolves the column set a statement reads for each table
// name — the MVCC seam. nil means live catalog tables (the writer
// side, under the exclusive latch); the engine passes a pinned mvcc
// snapshot so every scan in the plan reads one immutable version set.
type TableSource interface {
	Table(name string) (storage.TableData, error)
}

// PlanSelectParams is the one SELECT planner entry: every execution
// is planned fresh. workers > 0 replaces the planner's Parallelism for
// this one statement; every base-table scan reads through src, so the
// whole statement sees one consistent version set (nil = live catalog
// tables); ps, when non-nil, puts positional parameters in scope and
// must already have its argument values bound — a parameter on the
// partition key routes the scan from its value, exactly as a literal
// does. The statement's memory grant is a child of Mem capped at
// WorkMem.
func (p *Planner) PlanSelectParams(st *sql.SelectStmt, workers int, src TableSource, ps *Params) (exec.Operator, error) {
	if workers <= 0 {
		workers = p.Parallelism
	}
	ctx := &planCtx{p: p, workers: workers, fullWorkers: workers, mem: sched.StatementMem(p.Mem, p.WorkMem), ctes: make(map[string]*storage.Batch), src: src, params: ps}
	return ctx.planSelect(st)
}

// planCtx carries per-statement state (materialized CTEs).
type planCtx struct {
	p       *Planner
	src     TableSource // non-nil: resolve base tables through it
	workers int
	// mem is the statement's memory grant, installed on every blocking
	// operator (nil = unaccounted).
	mem *sched.MemBudget
	// fullWorkers remembers the statement's configured parallelism so
	// a blocking subtree under a serialized LIMIT can get it back.
	fullWorkers int
	ctes        map[string]*storage.Batch
	// params, when non-nil, puts positional parameters in scope; their
	// bound values route partition-key scans (see PinnedShard).
	params *Params
	// serial marks the subtree under a LIMIT (with no blocking ORDER
	// BY): operators there are planned serial — no Gathers —
	// so the LIMIT pulls O(limit) rows from the sources instead of
	// paying for a full parallel drain. Early exit beats parallelism
	// there.
	serial bool
}

// selectAggregates reports whether any core of the statement groups or
// aggregates — a blocking shape that must consume its whole input, so
// a LIMIT above it cannot short-circuit the sources.
func selectAggregates(st *sql.SelectStmt) bool {
	for _, core := range st.Cores {
		if len(core.GroupBy) > 0 || core.Having != nil {
			return true
		}
		var aggs []*sql.FuncExpr
		seen := make(map[string]bool)
		for _, it := range core.Items {
			if !it.Star {
				collectAggs(it.E, &aggs, seen)
			}
		}
		if len(aggs) > 0 {
			return true
		}
	}
	return false
}

func (c *planCtx) planSelect(st *sql.SelectStmt) (exec.Operator, error) {
	// Materialize CTEs in order; each sees the previous ones.
	saved := make(map[string]*storage.Batch, len(c.ctes))
	for k, v := range c.ctes {
		saved[k] = v
	}
	defer func() { c.ctes = saved }()

	for _, cte := range st.With {
		op, err := c.planSelect(cte.Select)
		if err != nil {
			return nil, fmt.Errorf("plan: CTE %s: %w", cte.Name, err)
		}
		data, err := exec.Drain(op)
		if err != nil {
			return nil, fmt.Errorf("plan: CTE %s: %w", cte.Name, err)
		}
		c.ctes[strings.ToLower(cte.Name)] = data
	}

	// A small LIMIT without a blocking shape beneath it restores the
	// early-exit contract: everything beneath it is planned serial so
	// the limit stops pulling from the sources after O(limit) rows.
	// Blocking shapes are exempt — an ORDER BY's sort and a GROUP
	// BY's aggregate must consume their whole input no matter what,
	// so serializing them buys no early exit and costs all the
	// parallelism — and past SerialLimitMax rows the saved source
	// reads no longer outweigh losing fan-out either.
	blocking := selectAggregates(st) || len(st.OrderBy) > 0
	if st.Limit != nil && !blocking {
		need := *st.Limit
		if st.Offset != nil {
			need += *st.Offset
		}
		if need >= 0 && need <= SerialLimitMax {
			savedWorkers, savedSerial := c.workers, c.serial
			c.workers, c.serial = 1, true
			defer func() { c.workers, c.serial = savedWorkers, savedSerial }()
		}
	} else if c.serial && blocking {
		// A blocking subquery (aggregate fold or sort) inherited a
		// serialized context from an outer LIMIT; it must consume its
		// whole input regardless, so give the subtree the statement's
		// full worker budget back.
		savedWorkers, savedSerial := c.workers, c.serial
		c.workers, c.serial = c.fullWorkers, false
		defer func() { c.workers, c.serial = savedWorkers, savedSerial }()
	}

	var op exec.Operator
	var itemStrings []string
	for i, core := range st.Cores {
		coreOp, strs, err := c.planCore(core)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			op = coreOp
			itemStrings = strs
		} else {
			if u, ok := op.(*exec.UnionAll); ok {
				u.Inputs = append(u.Inputs, coreOp)
			} else {
				op = &exec.UnionAll{Inputs: []exec.Operator{op, coreOp}}
			}
		}
	}

	if len(st.OrderBy) > 0 {
		keys, err := bindOrderBy(st.OrderBy, op.Schema(), itemStrings)
		if err != nil {
			// ORDER BY may reference input columns that are not
			// projected (ORDER BY id with SELECT name ...). For a
			// single non-DISTINCT core, re-plan with hidden sort
			// columns appended, sort, then project them away.
			op2, err2 := c.planWithHiddenSortColumns(st)
			if err2 != nil {
				return nil, err // report the original binding error
			}
			op = op2
		} else {
			op = &exec.Sort{Input: op, Keys: keys, Workers: c.workers, Budget: c.p.Budget, Mem: c.mem}
		}
	}
	if st.Limit != nil || st.Offset != nil {
		lim := int64(1<<62 - 1)
		if st.Limit != nil {
			lim = *st.Limit
		}
		var off int64
		if st.Offset != nil {
			off = *st.Offset
		}
		op = &exec.Limit{Input: op, N: lim, Offset: off}
	}
	return op, nil
}

// planWithHiddenSortColumns re-plans a single-core SELECT with the
// ORDER BY expressions appended as hidden projection columns, sorts on
// them, and strips them with a final projection.
func (c *planCtx) planWithHiddenSortColumns(st *sql.SelectStmt) (exec.Operator, error) {
	if len(st.Cores) != 1 || st.Cores[0].Distinct {
		return nil, fmt.Errorf("plan: ORDER BY expression not in select list")
	}
	core := *st.Cores[0]
	core.Items = append([]sql.SelectItem(nil), core.Items...)
	for i, it := range st.OrderBy {
		core.Items = append(core.Items, sql.SelectItem{E: it.E, Alias: fmt.Sprintf("$sort%d", i)})
	}
	op, _, err := c.planCore(&core)
	if err != nil {
		return nil, err
	}
	schema := op.Schema()
	// Star items may have expanded to more than `base` columns; the
	// hidden sort columns are always the last len(OrderBy) ones.
	visible := schema.Len() - len(st.OrderBy)
	keys := make([]storage.SortKey, len(st.OrderBy))
	for i := range st.OrderBy {
		keys[i] = storage.SortKey{Col: visible + i, Desc: st.OrderBy[i].Desc}
	}
	var sorted exec.Operator = &exec.Sort{Input: op, Keys: keys, Workers: c.workers, Budget: c.p.Budget, Mem: c.mem}
	exprs := make([]expr.Expr, visible)
	names := make([]string, visible)
	for i := 0; i < visible; i++ {
		exprs[i] = &expr.ColumnRef{Name: schema.Cols[i].Name, Index: i, Typ: schema.Cols[i].Type}
		names[i] = schema.Cols[i].Name
	}
	return exec.NewProject(sorted, exprs, names)
}

// bindOrderBy resolves ORDER BY items against the output schema: by
// ordinal, by output column name/alias, or by printed-expression match
// with a select item.
func bindOrderBy(items []sql.OrderItem, schema storage.Schema, itemStrings []string) ([]storage.SortKey, error) {
	keys := make([]storage.SortKey, 0, len(items))
	for _, it := range items {
		idx := -1
		switch n := it.E.(type) {
		case *sql.IntLit:
			if n.V < 1 || n.V > int64(schema.Len()) {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", n.V)
			}
			idx = int(n.V - 1)
		case *sql.Ident:
			if n.Qualifier == "" {
				idx = schema.IndexOf(n.Name)
			}
		}
		if idx < 0 {
			want := it.E.String()
			for i, s := range itemStrings {
				if s == want {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("plan: ORDER BY expression %s must appear in the select list", it.E)
		}
		keys = append(keys, storage.SortKey{Col: idx, Desc: it.Desc})
	}
	return keys, nil
}

// splitConjuncts flattens a tree of ANDs into a conjunct list.
func splitConjuncts(e sql.Expr, into []sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinExpr); ok && b.Op == "AND" {
		return splitConjuncts(b.R, splitConjuncts(b.L, into))
	}
	return append(into, e)
}

func andAll(conjuncts []sql.Expr) sql.Expr {
	if len(conjuncts) == 0 {
		return nil
	}
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &sql.BinExpr{Op: "AND", L: out, R: c}
	}
	return out
}

// bindable reports whether e binds cleanly in the scope.
func (c *planCtx) bindable(e sql.Expr, sc *Scope) bool {
	_, err := bindExpr(e, sc, c.p.Funcs, nil, c.params)
	return err == nil
}

// equiKey recognizes `l.col = r.col` conjuncts across two scopes and
// returns the key positions (left-side position, right-side position).
func equiKey(e sql.Expr, ls, rs *Scope) (int, int, bool) {
	b, ok := e.(*sql.BinExpr)
	if !ok || b.Op != "=" {
		return 0, 0, false
	}
	li, lok := identIn(b.L, ls)
	ri, rok := identIn(b.R, rs)
	if lok && rok {
		return li, ri, true
	}
	li2, lok2 := identIn(b.R, ls)
	ri2, rok2 := identIn(b.L, rs)
	if lok2 && rok2 {
		return li2, ri2, true
	}
	return 0, 0, false
}

func identIn(e sql.Expr, sc *Scope) (int, bool) {
	id, ok := e.(*sql.Ident)
	if !ok {
		return 0, false
	}
	i, _, err := sc.Resolve(id.Qualifier, id.Name)
	if err != nil {
		return 0, false
	}
	return i, true
}

// planTableRef lowers one base or derived FROM item to (operator,
// scope); planItem plans joins.
func (c *planCtx) planTableRef(ref sql.TableRef) (exec.Operator, *Scope, error) {
	switch t := ref.(type) {
	case *sql.BaseTable:
		qual := t.Alias
		if qual == "" {
			qual = t.Name
		}
		if data, ok := c.ctes[strings.ToLower(t.Name)]; ok {
			return &exec.BatchSource{Data: data}, NewScope(qual, data.Schema), nil
		}
		if c.src != nil {
			td, err := c.src.Table(t.Name)
			if err != nil {
				return nil, nil, err
			}
			return exec.NewTableScan(td), NewScope(qual, td.Schema()), nil
		}
		tb, err := c.p.Catalog.Get(t.Name)
		if err != nil {
			return nil, nil, err
		}
		return exec.NewTableScan(tb), NewScope(qual, tb.Schema()), nil
	case *sql.DerivedTable:
		op, err := c.planSelect(t.Select)
		if err != nil {
			return nil, nil, err
		}
		return op, NewScope(t.Alias, op.Schema()), nil
	default:
		return nil, nil, fmt.Errorf("plan: unsupported table reference %T", ref)
	}
}

// flatten appends the items of an inner or cross join chain to items,
// left to right, and to ons the ON condition of the join that adds each
// item (nil for the first item and a CROSS join). A LEFT join, a base
// table and a derived table are one item each.
func flatten(ref sql.TableRef, items []sql.TableRef, ons []sql.Expr) ([]sql.TableRef, []sql.Expr) {
	j, ok := ref.(*sql.JoinTable)
	if !ok || j.Kind == sql.JoinLeft {
		return append(items, ref), append(ons, nil)
	}
	items, ons = flatten(j.Left, items, ons)
	return append(items, j.Right), append(ons, j.On)
}

// planFrom plans a FROM list as one left-deep join and places each
// pending conjunct at the lowest point where it binds: on one item as a
// filter with shard routing (pushDown), at a join step as a hash key or
// the join's residual (joinStep), never as a filter over a join. A lone
// inner join chain flattens into the list, its ON conjuncts placed like
// WHERE's; a join beside other comma items plans its own list, as its
// ON sees only its own tables. It returns the conjuncts that bind
// nowhere in the list.
func (c *planCtx) planFrom(from []sql.TableRef, pending []sql.Expr) (exec.Operator, *Scope, []sql.Expr, error) {
	items, ons := from, make([]sql.Expr, len(from))
	if len(from) == 1 {
		items, ons = flatten(from[0], nil, nil)
	}
	var on []sql.Expr
	for _, e := range ons {
		if e != nil {
			on = splitConjuncts(e, on)
		}
	}
	pending = append(on, pending...)
	var op exec.Operator
	var sc *Scope
	for i, item := range items {
		rop, rsc, rest, err := c.planItem(item, pending)
		if err == nil && i > 0 {
			rop, rsc, rest, err = c.joinStep(op, sc, rop, rsc, exec.InnerJoin, rest)
		}
		if err == nil {
			// An ON condition sees the tables joined so far. Placement
			// bound each conjunct on the first input it fits, where a
			// name two tables share is not yet ambiguous.
			_, err = c.bindPred(ons[i], rsc)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		op, sc, pending = rop, rsc, rest
	}
	return op, sc, pending, nil
}

// planItem plans one FROM item and filters it by the pending conjuncts
// that bind on it alone.
func (c *planCtx) planItem(ref sql.TableRef, pending []sql.Expr) (exec.Operator, *Scope, []sql.Expr, error) {
	var op exec.Operator
	var sc *Scope
	var err error
	if j, ok := ref.(*sql.JoinTable); !ok {
		op, sc, err = c.planTableRef(ref)
	} else if j.Kind != sql.JoinLeft {
		return c.planFrom([]sql.TableRef{j}, pending)
	} else {
		op, sc, pending, err = c.planJoin(j, pending)
	}
	if err == nil {
		op, pending, err = c.pushDown(op, sc, pending)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return exec.Parallelize(op, c.workers, c.p.Budget), sc, pending, nil
}

// planJoin plans L LEFT JOIN R ON …. A pending conjunct that binds on L
// alone filters L, which drops the same rows as a filter above the
// join; one that references R stays pending, above the join. An ON
// conjunct that binds on R alone filters R; every other ON conjunct,
// even one on L alone, decides which rows match rather than which
// survive, so it becomes a key or the residual.
func (c *planCtx) planJoin(j *sql.JoinTable, pending []sql.Expr) (exec.Operator, *Scope, []sql.Expr, error) {
	lop, ls, pending, err := c.planItem(j.Left, pending)
	if err != nil {
		return nil, nil, nil, err
	}
	rop, rs, rest, err := c.planItem(j.Right, splitConjuncts(j.On, nil))
	if err != nil {
		return nil, nil, nil, err
	}
	op, sc, _, err := c.joinStep(lop, ls, rop, rs, exec.LeftJoin, rest)
	if err == nil {
		_, err = c.bindPred(j.On, sc)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return op, sc, pending, nil
}

// joinStep joins lop to rop and places there every pending conjunct
// that first binds on the pair: an equality between the two sides
// becomes a hash key, any other conjunct the hash join's residual or
// the nested-loop join's ON. It returns the conjuncts not yet bindable.
func (c *planCtx) joinStep(lop exec.Operator, ls *Scope, rop exec.Operator, rs *Scope, jt exec.JoinType, pending []sql.Expr) (exec.Operator, *Scope, []sql.Expr, error) {
	sc := Concat(ls, rs)
	var lkeys, rkeys []int
	var residual, rest []sql.Expr
	for _, cj := range pending {
		if lk, rk, ok := equiKey(cj, ls, rs); ok {
			lkeys = append(lkeys, lk)
			rkeys = append(rkeys, rk)
		} else if c.bindable(cj, sc) {
			residual = append(residual, cj)
		} else {
			rest = append(rest, cj)
		}
	}
	res, err := c.bindPred(andAll(residual), sc)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(lkeys) > 0 {
		// equiKey resolves each side against its own scope, so both key
		// lists are already operator-local positions.
		return &exec.HashJoin{
			Left: lop, Right: rop,
			LeftKeys: lkeys, RightKeys: rkeys,
			Type: jt, Residual: res,
			Workers: c.workers, Budget: c.p.Budget, Mem: c.mem,
		}, sc, rest, nil
	}
	if res == nil && jt == exec.InnerJoin {
		jt = exec.CrossJoin
	}
	return &exec.NestedLoopJoin{Left: lop, Right: rop, Type: jt, On: res, Mem: c.mem}, sc, rest, nil
}

// planCore lowers one SELECT core; it returns the operator and the
// printed select-item strings (for ORDER BY matching).
func (c *planCtx) planCore(core *sql.SelectCore) (exec.Operator, []string, error) {
	var where []sql.Expr
	if core.Where != nil {
		where = splitConjuncts(core.Where, nil)
	}
	var op exec.Operator
	var sc *Scope
	var err error
	if len(core.From) == 0 {
		op = &exec.OneRow{}
		sc = &Scope{Cols: []ScopeCol{{Qualifier: "$system", Name: "$one", Type: storage.TypeInt64, Hidden: true}}}
		op, _, err = c.pushDown(op, sc, where)
	} else {
		op, sc, _, err = c.planFrom(core.From, where)
	}
	if err == nil {
		// WHERE sees the whole FROM scope; see planFrom.
		_, err = c.bindPred(core.Where, sc)
	}
	if err != nil {
		return nil, nil, err
	}

	// Aggregate detection.
	var aggASTs []*sql.FuncExpr
	seen := make(map[string]bool)
	for _, it := range core.Items {
		if !it.Star {
			collectAggs(it.E, &aggASTs, seen)
		}
	}
	if core.Having != nil {
		collectAggs(core.Having, &aggASTs, seen)
	}

	if len(aggASTs) > 0 || len(core.GroupBy) > 0 {
		return c.planAggregate(op, sc, core, aggASTs)
	}
	if core.Having != nil {
		return nil, nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
	}
	return c.planProjection(op, sc, core, nil)
}

// pushDown applies every pending conjunct that binds on the given scope
// as a filter, returning the filtered operator and the remaining list.
// When the operator is a scan of a hash-partitioned table and one of
// the applicable conjuncts is a point predicate on the partition key,
// the scan is routed to the owning shard (see PinnedShard): the filter still
// runs (it keeps the semantics exact), but only one shard is read —
// point lookups, and any join or aggregate above such a filter, become
// shard-local.
func (c *planCtx) pushDown(op exec.Operator, sc *Scope, pending []sql.Expr) (exec.Operator, []sql.Expr, error) {
	var applicable []sql.Expr
	var rest []sql.Expr
	for _, cj := range pending {
		if c.bindable(cj, sc) {
			applicable = append(applicable, cj)
		} else {
			rest = append(rest, cj)
		}
	}
	where := andAll(applicable)
	if ts, ok := op.(*exec.TableScan); ok && ts.Shard == 0 {
		if sh, ok := ts.Table.(storage.Sharded); ok {
			if s, ok := PinnedShard(sh, sc, where, c.params); ok {
				ts.Shard = s + 1
			}
		}
	}
	pred, err := c.bindPred(where, sc)
	if err != nil {
		return nil, nil, err
	}
	if pred != nil {
		op = &exec.Filter{Input: op, Pred: pred}
	}
	return op, rest, nil
}

// bindPred binds a boolean predicate (nil binds to nil).
func (c *planCtx) bindPred(e sql.Expr, sc *Scope) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	pred, err := bindExpr(e, sc, c.p.Funcs, nil, c.params)
	if err != nil {
		return nil, err
	}
	if pred.Type() != storage.TypeBool {
		return nil, fmt.Errorf("plan: WHERE and ON must be boolean, got %s", pred.Type())
	}
	return pred, nil
}

// PinnedShard reports the one shard of sh a WHERE confines a statement
// to: some AND-level conjunct is `key = x` (either operand order), key
// the table's partition column resolved in sc, and x a literal or a
// bound parameter. Both a routed scan and a write's footprint come from
// this rule. A NULL x matches nothing, so any single shard (shard 0)
// yields the same empty result. x must otherwise have the key's type,
// or be INTEGER against a DOUBLE key (which HashValue hashes
// identically): a cross-type comparison pins nothing rather than risk a
// coercion mismatch.
func PinnedShard(sh storage.Sharded, sc *Scope, where sql.Expr, ps *Params) (int, bool) {
	if sh.NumShards() < 2 || sh.ShardKey() < 0 {
		return 0, false
	}
	for _, cj := range splitConjuncts(where, nil) {
		if s, ok := keyShard(sh, sc, cj, ps); ok {
			return s, true
		}
	}
	return 0, false
}

// keyShard is PinnedShard for one conjunct.
func keyShard(sh storage.Sharded, sc *Scope, cj sql.Expr, ps *Params) (int, bool) {
	b, ok := cj.(*sql.BinExpr)
	if !ok || b.Op != "=" {
		return 0, false
	}
	x := b.R
	if i, ok := identIn(b.L, sc); !ok || i != sh.ShardKey() {
		if i, ok = identIn(b.R, sc); !ok || i != sh.ShardKey() {
			return 0, false
		}
		x = b.L
	}
	var v storage.Value
	switch l := x.(type) {
	case *sql.Param:
		if ps == nil {
			return 0, false
		}
		if v, ok = ps.Slot.Arg(l.N); !ok {
			return 0, false
		}
	case *sql.NullLit:
		v = storage.Value{Null: true}
	case *sql.IntLit:
		v = storage.Int64(l.V)
	case *sql.FloatLit:
		v = storage.Float64(l.V)
	case *sql.StringLit:
		v = storage.Str(l.V)
	case *sql.BoolLit:
		v = storage.Bool(l.V)
	default:
		return 0, false
	}
	if v.Null {
		return 0, true
	}
	kt := sh.Schema().Cols[sh.ShardKey()].Type
	if v.Type != kt && !(v.Type == storage.TypeInt64 && kt == storage.TypeFloat64) {
		return 0, false
	}
	cv, err := storage.Coerce(v, kt)
	if err != nil {
		return 0, false
	}
	return int(storage.HashValue(cv) % uint64(sh.NumShards())), true
}

// planProjection binds the select items over the (possibly post-
// aggregate) scope and applies DISTINCT.
func (c *planCtx) planProjection(op exec.Operator, sc *Scope, core *sql.SelectCore, ag *aggScope) (exec.Operator, []string, error) {
	var exprs []expr.Expr
	var names []string
	var strs []string
	for _, it := range core.Items {
		if it.Star {
			if ag != nil {
				return nil, nil, fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY")
			}
			for _, i := range sc.Visible(it.StarTable) {
				col := sc.Cols[i]
				exprs = append(exprs, &expr.ColumnRef{Name: col.Name, Index: i, Typ: col.Type})
				names = append(names, col.Name)
				strs = append(strs, col.Name)
			}
			continue
		}
		bound, err := bindExpr(it.E, sc, c.p.Funcs, ag, c.params)
		if err != nil {
			return nil, nil, err
		}
		name := it.Alias
		if name == "" {
			if id, ok := it.E.(*sql.Ident); ok {
				name = id.Name
			} else {
				name = it.E.String()
			}
		}
		exprs = append(exprs, bound)
		names = append(names, name)
		strs = append(strs, it.E.String())
	}
	proj, err := exec.NewProject(op, exprs, names)
	if err != nil {
		return nil, nil, err
	}
	// The projection is stateless: fuse it into its input's parallel
	// fragments (scan morsels or join clones) so the expression
	// evaluation runs on all workers. Over an aggregate it stays serial
	// and reads the aggregate's output directly.
	op = exec.Parallelize(proj, c.workers, c.p.Budget)
	if core.Distinct {
		op = &exec.Distinct{Input: op, Mem: c.mem}
	}
	return op, strs, nil
}

// planAggregate lowers the GROUP BY / aggregate path.
func (c *planCtx) planAggregate(op exec.Operator, sc *Scope, core *sql.SelectCore, aggASTs []*sql.FuncExpr) (exec.Operator, []string, error) {
	groupExprs := make([]expr.Expr, len(core.GroupBy))
	names := make([]string, 0, len(core.GroupBy)+len(aggASTs))
	postCols := make([]ScopeCol, 0, len(core.GroupBy)+len(aggASTs))
	ag := &aggScope{byString: make(map[string]*expr.ColumnRef)}

	for i, g := range core.GroupBy {
		bound, err := bindExpr(g, sc, c.p.Funcs, nil, c.params)
		if err != nil {
			return nil, nil, err
		}
		groupExprs[i] = bound
		var col ScopeCol
		if id, ok := g.(*sql.Ident); ok {
			pos, typ, err := sc.Resolve(id.Qualifier, id.Name)
			if err != nil {
				return nil, nil, err
			}
			col = sc.Cols[pos]
			col.Type = typ
		} else {
			col = ScopeCol{Name: fmt.Sprintf("g%d", i), Type: bound.Type(), Hidden: true}
		}
		postCols = append(postCols, col)
		names = append(names, col.Name)
		ag.byString[g.String()] = &expr.ColumnRef{Name: g.String(), Index: i, Typ: bound.Type()}
	}

	aggs := make([]*expr.Aggregate, len(aggASTs))
	for j, a := range aggASTs {
		kind, _ := expr.AggKindByName(a.Name)
		agg := &expr.Aggregate{Kind: kind, Distinct: a.Distinct}
		if a.Star {
			if kind != expr.AggCount {
				return nil, nil, fmt.Errorf("plan: %s(*) is not valid", strings.ToUpper(a.Name))
			}
			agg.Kind = expr.AggCountStar
		} else {
			if len(a.Args) != 1 {
				return nil, nil, fmt.Errorf("plan: %s takes exactly one argument", strings.ToUpper(a.Name))
			}
			in, err := bindExpr(a.Args[0], sc, c.p.Funcs, nil, c.params)
			if err != nil {
				return nil, nil, err
			}
			agg.Input = in
		}
		rt, err := agg.ResultType()
		if err != nil {
			return nil, nil, err
		}
		aggs[j] = agg
		idx := len(core.GroupBy) + j
		name := a.String()
		names = append(names, name)
		postCols = append(postCols, ScopeCol{Name: name, Type: rt, Hidden: true})
		ag.byString[a.String()] = &expr.ColumnRef{Name: name, Index: idx, Typ: rt}
	}

	op = &exec.HashAggregate{
		Input:   exec.Parallelize(op, c.workers, c.p.Budget),
		GroupBy: groupExprs, Aggs: aggs, Names: names,
		Workers: c.workers, Budget: c.p.Budget, Mem: c.mem,
	}
	postScope := &Scope{Cols: postCols}

	if core.Having != nil {
		pred, err := bindExpr(core.Having, postScope, c.p.Funcs, ag, c.params)
		if err != nil {
			return nil, nil, err
		}
		if pred.Type() != storage.TypeBool {
			return nil, nil, fmt.Errorf("plan: HAVING must be boolean, got %s", pred.Type())
		}
		op = &exec.Filter{Input: op, Pred: pred}
	}
	return c.planProjection(op, postScope, core, ag)
}
