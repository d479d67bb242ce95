package exec

import (
	"fmt"

	"repro/internal/storage"
)

// Support for cached (prepared) plans. A plan can be executed again
// only if every operator in it fully resets in Open and reads no data
// captured at plan time; Cacheable whitelists exactly those shapes.
// Rebind then repoints every TableScan at the current execution's
// version set (an MVCC snapshot) before each run.

// Cacheable reports whether the tree rooted at op can be executed more
// than once. The whitelist is conservative: every listed operator's
// Open re-initializes all iteration state, and none of them hold data
// materialized at plan time. Notable exclusions:
//
//   - BatchSource serves a batch captured at plan time (CTE results,
//     VALUES): re-running it would replay stale data.
//   - Unknown operator types default to false.
func Cacheable(op Operator) bool {
	switch o := op.(type) {
	case *TableScan, *OneRow:
		return true
	case *Filter:
		return Cacheable(o.Input)
	case *Project:
		return Cacheable(o.Input)
	case *Limit:
		return Cacheable(o.Input)
	case *Distinct:
		return Cacheable(o.Input)
	case *Sort:
		return Cacheable(o.Input)
	case *HashAggregate:
		return Cacheable(o.Input)
	case *HashJoin:
		return Cacheable(o.Left) && Cacheable(o.Right)
	case *NestedLoopJoin:
		return Cacheable(o.Left) && Cacheable(o.Right)
	case *UnionAll:
		for _, in := range o.Inputs {
			if !Cacheable(in) {
				return false
			}
		}
		return true
	case *Gather:
		for _, f := range o.Fragments {
			if !Cacheable(f) {
				return false
			}
		}
		return true
	case *ctxOperator:
		return Cacheable(o.input)
	default:
		return false
	}
}

// Rebind repoints every TableScan in the tree at the table data lookup
// returns for its current table's name. The caller guarantees the new
// data has the same schema (the engine keys cached plans by catalog
// version, so any DDL invalidates the plan instead of reaching here);
// scan output schemas are therefore kept as planned.
func Rebind(op Operator, lookup func(string) (storage.TableData, error)) error {
	switch o := op.(type) {
	case *TableScan:
		td, err := lookup(o.Table.Name())
		if err != nil {
			return err
		}
		o.Table = td
		return nil
	case *OneRow:
		return nil
	case *Filter:
		return Rebind(o.Input, lookup)
	case *Project:
		return Rebind(o.Input, lookup)
	case *Limit:
		return Rebind(o.Input, lookup)
	case *Distinct:
		return Rebind(o.Input, lookup)
	case *Sort:
		return Rebind(o.Input, lookup)
	case *HashAggregate:
		return Rebind(o.Input, lookup)
	case *HashJoin:
		if err := Rebind(o.Left, lookup); err != nil {
			return err
		}
		return Rebind(o.Right, lookup)
	case *NestedLoopJoin:
		if err := Rebind(o.Left, lookup); err != nil {
			return err
		}
		return Rebind(o.Right, lookup)
	case *UnionAll:
		for _, in := range o.Inputs {
			if err := Rebind(in, lookup); err != nil {
				return err
			}
		}
		return nil
	case *Gather:
		for _, f := range o.Fragments {
			if err := Rebind(f, lookup); err != nil {
				return err
			}
		}
		return nil
	case *ctxOperator:
		return Rebind(o.input, lookup)
	default:
		return fmt.Errorf("exec: cannot rebind %T (plan should not have been cached)", op)
	}
}
