package plan

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Route is a bind-time shard routing decision: Scan's target shard is
// computed from argument N's value at every execution (the plan-time
// equivalent — a literal point predicate on the partition key — sets
// TableScan.Shard once, at planning).
type Route struct {
	Scan *exec.TableScan
	N    int          // 1-based parameter index holding the key value
	Key  storage.Type // partition-key column type (coercion target)
}

// Prepared is a parameterized SELECT plan ready for repeated
// bind-and-run execution. One execution at a time may use it: Bind
// mutates the shared ParamSlot, the scan targets and the context ref.
type Prepared struct {
	Root   exec.Operator
	Slot   *expr.ParamSlot
	Types  []storage.Type
	Routes []Route
	CtxRef *exec.CtxRef
	// Workers is the parallelism the plan was built for; a session
	// whose effective worker count differs must not reuse it.
	Workers int
}

// PrepareSelectMem plans st once for repeated execution. ps carries the
// parameter types (from the first execution's arguments) and must
// already have those arguments bound — parameterized CTEs are drained
// at plan time and read them. src resolves the tables of this first
// execution; later executions repoint the scans via Bind. workMem >= 0
// replaces the planner's WorkMem for this statement (0 = unlimited); a
// negative value means the planner default. The statement's memory
// grant is built into the plan, so a cached plan must only be reused by
// executions with the same work_mem — the plan cache keys on it.
func (p *Planner) PrepareSelectMem(st *sql.SelectStmt, workers int, workMem int64, src TableSource, ps *Params) (*Prepared, error) {
	if workers <= 0 {
		workers = p.Parallelism
	}
	c := &planCtx{p: p, workers: workers, fullWorkers: workers, mem: p.statementMem(workMem), ctes: make(map[string]*storage.Batch), src: src, params: ps}
	root, err := c.planSelect(st)
	if err != nil {
		return nil, err
	}
	ref := exec.NewCtxRef()
	return &Prepared{
		Root: exec.WithContextRef(ref, root), Slot: ps.Slot, Types: ps.Types,
		Routes: c.routes, CtxRef: ref, Workers: workers,
	}, nil
}

// Bind readies the plan for one execution: it installs the execution's
// context, binds the argument values, repoints every scan through
// lookup (nil keeps the current tables — the first execution), and
// routes parameter-keyed point scans to their owning shards. The
// caller must guarantee exclusive use of the plan until the run ends
// and that args match the prepared type signature.
func (pp *Prepared) Bind(ctx context.Context, args []storage.Value, lookup func(string) (storage.TableData, error)) error {
	if len(args) < len(pp.Types) {
		return fmt.Errorf("plan: prepared statement wants %d arguments, got %d", len(pp.Types), len(args))
	}
	pp.CtxRef.Set(ctx)
	pp.Slot.Bind(args)
	if lookup != nil {
		if err := exec.Rebind(pp.Root, lookup); err != nil {
			return err
		}
	}
	bindRoutes(pp.Routes, args)
	return nil
}

// bindRoutes routes each parameter-keyed point scan to the shard its
// bound key value hashes to.
func bindRoutes(routes []Route, args []storage.Value) {
	for _, r := range routes {
		sh, ok := r.Scan.Table.(storage.Sharded)
		if !ok || sh.NumShards() < 2 || r.N > len(args) {
			r.Scan.Shard = 1
			continue
		}
		v := args[r.N-1]
		if v.Null {
			// `key = NULL` matches nothing; any single shard yields the
			// same (empty) filtered result without a full scan.
			r.Scan.Shard = 1
			continue
		}
		cv, err := storage.Coerce(v, r.Key)
		if err != nil {
			// The prepared type signature ruled out cross-type keys, so
			// this cannot happen; route to shard 1 and let the filter
			// surface whatever the comparison does.
			r.Scan.Shard = 1
			continue
		}
		r.Scan.Shard = int(storage.HashValue(cv)%uint64(sh.NumShards())) + 1
	}
}
