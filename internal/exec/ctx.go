package exec

import (
	"context"

	"repro/internal/storage"
)

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
	return wrapCtx(ctx, op)
}

// wrapCtx pushes the context check below every materialization point.
// Operator trees are built per execution, so mutating child links in
// place is safe.
func wrapCtx(ctx context.Context, op Operator) Operator {
	switch o := op.(type) {
	case *Filter:
		o.Input = wrapCtx(ctx, o.Input)
	case *Project:
		o.Input = wrapCtx(ctx, o.Input)
	case *Limit:
		o.Input = wrapCtx(ctx, o.Input)
	case *Distinct:
		o.Input = wrapCtx(ctx, o.Input)
	case *Sort:
		o.Input = wrapCtx(ctx, o.Input)
	case *HashAggregate:
		o.Input = wrapCtx(ctx, o.Input)
	case *HashJoin:
		o.Left = wrapCtx(ctx, o.Left)
		o.Right = wrapCtx(ctx, o.Right)
	case *NestedLoopJoin:
		o.Left = wrapCtx(ctx, o.Left)
		o.Right = wrapCtx(ctx, o.Right)
	case *UnionAll:
		for i := range o.Inputs {
			o.Inputs[i] = wrapCtx(ctx, o.Inputs[i])
		}
	case *Gather:
		// Fragment goroutines check the context themselves, so a
		// cancelled parallel query stops producing promptly instead of
		// filling its bounded channels to the end.
		for i := range o.Fragments {
			o.Fragments[i] = wrapCtx(ctx, o.Fragments[i])
		}
	}
	return &ctxOperator{ctx: ctx, input: op}
}

// ctxOperator aborts iteration once its context is cancelled.
type ctxOperator struct {
	ctx   context.Context
	input Operator
}

// Schema implements Operator.
func (c *ctxOperator) Schema() storage.Schema { return c.input.Schema() }

// Open implements Operator.
func (c *ctxOperator) Open() error {
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
