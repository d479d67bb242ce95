package plan

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/storage"
)

// typeFromName maps normalized SQL type names to storage types.
func typeFromName(name string) (storage.Type, error) {
	switch strings.ToUpper(name) {
	case "INTEGER":
		return storage.TypeInt64, nil
	case "DOUBLE":
		return storage.TypeFloat64, nil
	case "VARCHAR":
		return storage.TypeString, nil
	case "BOOLEAN":
		return storage.TypeBool, nil
	default:
		return 0, fmt.Errorf("plan: unknown type %q", name)
	}
}

var binOps = map[string]expr.BinOp{
	"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul, "/": expr.OpDiv,
	"%": expr.OpMod, "=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe, "AND": expr.OpAnd,
	"OR": expr.OpOr, "||": expr.OpConcat,
}

// Params is the binding context for positional parameters ($1..$n).
// Types records each parameter's storage type — taken from the
// execution's argument values, so a bound parameter behaves exactly
// like the literal the substitution path would have rendered — and
// Slot is the shared cell all Param nodes of the plan read the values
// from.
type Params struct {
	Slot  *expr.ParamSlot
	Types []storage.Type
}

// NewParams returns a Params for arguments of the given values' types,
// with the values already bound (planning evaluates parameterized CTEs
// and VALUES eagerly and routes partition-key scans by value, so the
// arguments must be readable during binding).
func NewParams(args []storage.Value) *Params {
	slot := &expr.ParamSlot{}
	slot.Bind(args)
	types := make([]storage.Type, len(args))
	for i, a := range args {
		types[i] = a.Type
	}
	return &Params{Slot: slot, Types: types}
}

// BindExpr binds a scalar AST expression against the scope. Aggregate
// calls are rejected here; the aggregate path binds through aggScope.
func BindExpr(e sql.Expr, sc *Scope, funcs *expr.Registry) (expr.Expr, error) {
	return bindExpr(e, sc, funcs, nil, nil)
}

// BindExprParams is BindExpr with positional parameters in scope (the
// engine's parameterized DML path).
func BindExprParams(e sql.Expr, sc *Scope, funcs *expr.Registry, ps *Params) (expr.Expr, error) {
	return bindExpr(e, sc, funcs, nil, ps)
}

// aggScope maps the printed form of group-by expressions and aggregate
// calls to output columns of a HashAggregate.
type aggScope struct {
	byString map[string]*expr.ColumnRef
}

func bindExpr(e sql.Expr, sc *Scope, funcs *expr.Registry, ag *aggScope, ps *Params) (expr.Expr, error) {
	// In post-aggregation binding, whole subtrees that match a group-by
	// expression or an aggregate call resolve to agg output columns.
	if ag != nil {
		if ref, ok := ag.byString[e.String()]; ok {
			return ref, nil
		}
	}
	switch n := e.(type) {
	case *sql.Ident:
		i, t, err := sc.Resolve(n.Qualifier, n.Name)
		if err != nil {
			if ag != nil {
				return nil, fmt.Errorf("%w (columns not in GROUP BY must be wrapped in an aggregate)", err)
			}
			return nil, err
		}
		return &expr.ColumnRef{Name: n.String(), Index: i, Typ: t}, nil
	case *sql.IntLit:
		return &expr.Literal{Val: storage.Int64(n.V)}, nil
	case *sql.FloatLit:
		return &expr.Literal{Val: storage.Float64(n.V)}, nil
	case *sql.StringLit:
		return &expr.Literal{Val: storage.Str(n.V)}, nil
	case *sql.BoolLit:
		return &expr.Literal{Val: storage.Bool(n.V)}, nil
	case *sql.NullLit:
		return &expr.Literal{Val: storage.Null(storage.TypeString)}, nil
	case *sql.Param:
		if ps == nil {
			return nil, fmt.Errorf("plan: parameter $%d outside a prepared statement", n.N)
		}
		if n.N < 1 || n.N > len(ps.Types) {
			return nil, fmt.Errorf("plan: parameter $%d out of range (%d arguments bound)", n.N, len(ps.Types))
		}
		return &expr.Param{N: n.N, Typ: ps.Types[n.N-1], Slot: ps.Slot}, nil
	case *sql.BinExpr:
		l, err := bindExpr(n.L, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(n.R, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[n.Op]
		if !ok {
			return nil, fmt.Errorf("plan: unknown operator %q", n.Op)
		}
		// NULL literals adopt the other side's type in comparisons.
		if lit, isLit := l.(*expr.Literal); isLit && lit.Val.Null {
			l = &expr.Literal{Val: storage.Null(r.Type())}
		}
		if lit, isLit := r.(*expr.Literal); isLit && lit.Val.Null {
			r = &expr.Literal{Val: storage.Null(l.Type())}
		}
		return expr.NewBinary(op, l, r)
	case *sql.UnExpr:
		in, err := bindExpr(n.E, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			return expr.NewNot(in)
		}
		return expr.NewNeg(in)
	case *sql.IsNullExpr:
		in, err := bindExpr(n.E, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Input: in, Negate: n.Not}, nil
	case *sql.InExpr:
		in, err := bindExpr(n.E, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(n.List))
		for i, le := range n.List {
			b, err := bindExpr(le, sc, funcs, ag, ps)
			if err != nil {
				return nil, err
			}
			list[i] = b
		}
		return &expr.InList{Input: in, List: list, Negate: n.Not}, nil
	case *sql.LikeExpr:
		in, err := bindExpr(n.E, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		pat, err := bindExpr(n.Pattern, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		if in.Type() != storage.TypeString || pat.Type() != storage.TypeString {
			return nil, fmt.Errorf("plan: LIKE requires strings")
		}
		return &expr.Like{Input: in, Pattern: pat, Negate: n.Not}, nil
	case *sql.CastExpr:
		in, err := bindExpr(n.E, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		t, err := typeFromName(n.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{Input: in, To: t}, nil
	case *sql.CaseExpr:
		return bindCase(n, sc, funcs, ag, ps)
	case *sql.FuncExpr:
		if _, isAgg := expr.AggKindByName(n.Name); isAgg {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", strings.ToUpper(n.Name))
		}
		fn, ok := funcs.Lookup(n.Name)
		if !ok {
			return nil, fmt.Errorf("plan: unknown function %q", n.Name)
		}
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			b, err := bindExpr(a, sc, funcs, ag, ps)
			if err != nil {
				return nil, err
			}
			args[i] = b
		}
		return expr.NewCall(fn, args)
	default:
		return nil, fmt.Errorf("plan: cannot bind %T", e)
	}
}

func bindCase(n *sql.CaseExpr, sc *Scope, funcs *expr.Registry, ag *aggScope, ps *Params) (expr.Expr, error) {
	out := &expr.Case{}
	var branches []expr.Expr
	for _, w := range n.Whens {
		cond, err := bindExpr(w.Cond, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		if cond.Type() != storage.TypeBool {
			return nil, fmt.Errorf("plan: CASE WHEN condition must be boolean, got %s", cond.Type())
		}
		then, err := bindExpr(w.Then, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		out.Whens = append(out.Whens, expr.When{Cond: cond, Then: then})
		branches = append(branches, then)
	}
	if n.Else != nil {
		els, err := bindExpr(n.Else, sc, funcs, ag, ps)
		if err != nil {
			return nil, err
		}
		out.Else = els
		branches = append(branches, els)
	}
	typ, err := commonType(branches)
	if err != nil {
		return nil, fmt.Errorf("plan: CASE branches: %w", err)
	}
	out.Typ = typ
	return out, nil
}

// commonType finds the result type of a set of branches: identical
// types win; mixed numerics promote to DOUBLE; anything else errors.
func commonType(es []expr.Expr) (storage.Type, error) {
	if len(es) == 0 {
		return storage.TypeString, nil
	}
	t := es[0].Type()
	for _, e := range es[1:] {
		et := e.Type()
		if et == t {
			continue
		}
		if et.Numeric() && t.Numeric() {
			t = storage.TypeFloat64
			continue
		}
		return 0, fmt.Errorf("incompatible types %s and %s", t, et)
	}
	return t, nil
}

// collectAggs walks an AST collecting aggregate calls (deduplicated by
// printed form, in first-appearance order).
func collectAggs(e sql.Expr, into *[]*sql.FuncExpr, seen map[string]bool) {
	switch n := e.(type) {
	case *sql.FuncExpr:
		if _, isAgg := expr.AggKindByName(n.Name); isAgg {
			key := n.String()
			if !seen[key] {
				seen[key] = true
				*into = append(*into, n)
			}
			return // aggregates do not nest
		}
		for _, a := range n.Args {
			collectAggs(a, into, seen)
		}
	case *sql.BinExpr:
		collectAggs(n.L, into, seen)
		collectAggs(n.R, into, seen)
	case *sql.UnExpr:
		collectAggs(n.E, into, seen)
	case *sql.IsNullExpr:
		collectAggs(n.E, into, seen)
	case *sql.InExpr:
		collectAggs(n.E, into, seen)
		for _, le := range n.List {
			collectAggs(le, into, seen)
		}
	case *sql.LikeExpr:
		collectAggs(n.E, into, seen)
		collectAggs(n.Pattern, into, seen)
	case *sql.CastExpr:
		collectAggs(n.E, into, seen)
	case *sql.CaseExpr:
		for _, w := range n.Whens {
			collectAggs(w.Cond, into, seen)
			collectAggs(w.Then, into, seen)
		}
		if n.Else != nil {
			collectAggs(n.Else, into, seen)
		}
	}
}
