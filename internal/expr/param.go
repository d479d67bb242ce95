package expr

import (
	"fmt"
	"strconv"

	"repro/internal/storage"
)

// ParamSlot holds the argument values of one execution of a
// parameterized plan. Every Param node of the plan shares one slot;
// Bind is called before planning, and the tree then reads arguments
// through its Params. A plan serves one execution, so the slot needs
// no locking.
type ParamSlot struct {
	vals []storage.Value
}

// Bind installs the argument values for the next execution.
func (s *ParamSlot) Bind(args []storage.Value) { s.vals = args }

// Arg returns the bound value of parameter n (1-based), when present.
func (s *ParamSlot) Arg(n int) (storage.Value, bool) {
	if n < 1 || n > len(s.vals) {
		return storage.Value{}, false
	}
	return s.vals[n-1], true
}

// Param reads positional argument N (1-based) from its slot, coerced
// to the type recorded at plan time — the type of the argument the
// plan was built with, which makes a bound Param behave exactly like
// the literal the substitution path would have rendered.
type Param struct {
	N    int
	Typ  storage.Type
	Slot *ParamSlot
}

// Value returns the bound argument, coerced to the planned type.
func (p *Param) Value() (storage.Value, error) {
	if p.Slot == nil || p.N > len(p.Slot.vals) {
		return storage.Value{}, fmt.Errorf("expr: parameter $%d unbound", p.N)
	}
	v := p.Slot.vals[p.N-1]
	if v.Null {
		return storage.Null(p.Typ), nil
	}
	return storage.Coerce(v, p.Typ)
}

// Eval implements Expr.
func (p *Param) Eval(Row) (storage.Value, error) { return p.Value() }

// Type implements Expr.
func (p *Param) Type() storage.Type { return p.Typ }

// String implements Expr.
func (p *Param) String() string { return "$" + strconv.Itoa(p.N) }
