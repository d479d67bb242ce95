package exec

import (
	"context"
	"sync"

	"repro/internal/storage"
)

// CtxRef is a swappable context holder for cached plans. A plan that
// lives across executions is wrapped with WithContextRef exactly once
// at plan time; each execution installs its own context with Set
// before opening the tree, and every ctxOperator snapshots the current
// context in Open. Without the indirection a cached tree would bake in
// its first execution's context forever (and fail permanently once
// that context was cancelled).
type CtxRef struct {
	mu  sync.Mutex
	ctx context.Context
}

// NewCtxRef returns a ref holding context.Background().
func NewCtxRef() *CtxRef {
	return &CtxRef{ctx: context.Background()}
}

// Set installs the context for the next execution. It must be called
// before the tree is opened, never while it is iterating.
func (r *CtxRef) Set(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.mu.Lock()
	r.ctx = ctx
	r.mu.Unlock()
}

func (r *CtxRef) load() context.Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctx
}

// WithContext wraps op so that iteration fails fast once ctx is
// cancelled. The wrap is recursive: blocking operators (joins,
// aggregates, sorts) drain their children inside Open, so the
// context is checked at every operator boundary, batch by batch — a
// cancelled context aborts mid-statement, not just between statements.
// The engine wraps every statement's root operator with it.
func WithContext(ctx context.Context, op Operator) Operator {
	if ctx == nil || ctx.Done() == nil {
		return op // context.Background(): nothing to check
	}
	return wrapCtx(ctx, nil, op)
}

// WithContextRef is WithContext for cached plans: the tree is wrapped
// once and each execution's context arrives through ref. It always
// wraps — even if the ref currently holds an uncancellable context —
// because later executions may install cancellable ones.
func WithContextRef(ref *CtxRef, op Operator) Operator {
	return wrapCtx(nil, ref, op)
}

// wrapCtx pushes the context check below every materialization point.
// Operator trees are built per statement (or checked out by one
// execution at a time, for cached plans), so mutating child links in
// place is safe. Exactly one of ctx and ref is non-nil.
func wrapCtx(ctx context.Context, ref *CtxRef, op Operator) Operator {
	switch o := op.(type) {
	case *Filter:
		o.Input = wrapCtx(ctx, ref, o.Input)
	case *Project:
		o.Input = wrapCtx(ctx, ref, o.Input)
	case *Limit:
		o.Input = wrapCtx(ctx, ref, o.Input)
	case *Distinct:
		o.Input = wrapCtx(ctx, ref, o.Input)
	case *Sort:
		o.Input = wrapCtx(ctx, ref, o.Input)
	case *HashAggregate:
		o.Input = wrapCtx(ctx, ref, o.Input)
	case *HashJoin:
		o.Left = wrapCtx(ctx, ref, o.Left)
		o.Right = wrapCtx(ctx, ref, o.Right)
	case *NestedLoopJoin:
		o.Left = wrapCtx(ctx, ref, o.Left)
		o.Right = wrapCtx(ctx, ref, o.Right)
	case *UnionAll:
		for i := range o.Inputs {
			o.Inputs[i] = wrapCtx(ctx, ref, o.Inputs[i])
		}
	case *Gather:
		// Fragment goroutines check the context themselves, so a
		// cancelled parallel query stops producing promptly instead of
		// filling its bounded channels to the end.
		for i := range o.Fragments {
			o.Fragments[i] = wrapCtx(ctx, ref, o.Fragments[i])
		}
	case *ctxOperator:
		return op // already wrapped (a re-wrapped cached subtree)
	}
	return &ctxOperator{ctx: ctx, ref: ref, input: op}
}

// ctxOperator aborts iteration once its context is cancelled. With a
// ref, the effective context is re-read at every Open, so a cached
// plan observes the current execution's context, not a prior one's.
type ctxOperator struct {
	ctx   context.Context
	ref   *CtxRef
	input Operator
}

// Schema implements Operator.
func (c *ctxOperator) Schema() storage.Schema { return c.input.Schema() }

// Open implements Operator.
func (c *ctxOperator) Open() error {
	if c.ref != nil {
		c.ctx = c.ref.load()
	}
	if err := c.ctx.Err(); err != nil {
		return err
	}
	return c.input.Open()
}

// Next implements Operator.
func (c *ctxOperator) Next() (*storage.Batch, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	return c.input.Next()
}

// Close implements Operator.
func (c *ctxOperator) Close() error { return c.input.Close() }
