package exec

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/storage"
)

// Plan-tree rendering for EXPLAIN / EXPLAIN ANALYZE.
//
// A parallel plan is a Gather over per-morsel clones of one logical
// pipeline, so rendering the physical tree verbatim would print the
// same Filter/Scan stack once per fragment. Explain instead walks SETS
// of structurally identical clones: the Gather line reports the
// fan-out, and each level below it is one line whose row counts are the
// sums across the clones — which makes ANALYZE row counts identical at
// any worker count (the clones partition the same rows the serial plan
// sees) — and whose time is the slowest clone's. Join clones dedupe to
// their one shared build side, and ctxOperator wrappers are
// transparent.

// Explain renders the plan tree rooted at op, one node per line,
// indented two spaces per level. With analyze, each line carries the
// node's accumulated counters (rows, batches, operator wall time).
func Explain(op Operator, analyze bool) []string {
	var lines []string
	explainSet([]Operator{op}, 0, analyze, &lines)
	return lines
}

// explainSet renders one logical node (a set of physical clones) and
// recurses into its children.
func explainSet(ops []Operator, depth int, analyze bool, lines *[]string) {
	ops = unwrapSet(ops)
	if len(ops) == 0 {
		return
	}
	line := strings.Repeat("  ", depth) + describeSet(ops)
	if analyze {
		line += statsSuffix(ops)
	}
	*lines = append(*lines, line)
	for _, kids := range childSets(ops) {
		explainSet(kids, depth+1, analyze, lines)
	}
}

// unwrapSet strips ctxOperator wrappers (they carry no plan
// information) without mutating the callers' slices.
func unwrapSet(ops []Operator) []Operator {
	out := make([]Operator, 0, len(ops))
	for _, op := range ops {
		for {
			c, ok := op.(*ctxOperator)
			if !ok {
				break
			}
			op = c.input
		}
		out = append(out, op)
	}
	return out
}

// childSets returns the child clone-sets of a logical node. Clone sets
// are type-homogeneous by construction (splitFragment clones one
// operator stack), so the children of a set are the matching child of
// each member.
func childSets(ops []Operator) [][]Operator {
	switch ops[0].(type) {
	case *Gather:
		var frags []Operator
		for _, op := range ops {
			if g, ok := op.(*Gather); ok {
				frags = append(frags, g.Fragments...)
			}
		}
		return [][]Operator{frags}
	case *UnionAll:
		// Union inputs are positional: input i of every clone merges.
		n := len(ops[0].(*UnionAll).Inputs)
		sets := make([][]Operator, n)
		for i := 0; i < n; i++ {
			for _, op := range ops {
				if u, ok := op.(*UnionAll); ok && i < len(u.Inputs) {
					sets[i] = append(sets[i], u.Inputs[i])
				}
			}
		}
		return sets
	case *HashJoin, *NestedLoopJoin:
		// Clones share one build side and its right input: descend into
		// each distinct right input once.
		var lefts, rights []Operator
		seen := make(map[*joinBuild]bool)
		for _, op := range ops {
			if j, ok := op.(clonedJoin); ok {
				l, r := j.inputs()
				lefts = append(lefts, l)
				if b := j.build(); !seen[b] {
					seen[b] = true
					rights = append(rights, r)
				}
			}
		}
		return [][]Operator{rights, lefts} // build side first, like the execution order
	}
	var kids []Operator
	for _, op := range ops {
		switch o := op.(type) {
		case *Filter:
			kids = append(kids, o.Input)
		case *Project:
			kids = append(kids, o.Input)
		case *Limit:
			kids = append(kids, o.Input)
		case *Distinct:
			kids = append(kids, o.Input)
		case *Sort:
			kids = append(kids, o.Input)
		case *HashAggregate:
			kids = append(kids, o.Input)
		}
	}
	if len(kids) == 0 {
		return nil
	}
	return [][]Operator{kids}
}

// describeSet returns the one-line label of a logical node: operator
// name, its defining arguments, and the routing / execution-mode
// annotations EXPLAIN exists to surface.
func describeSet(ops []Operator) string {
	switch o := ops[0].(type) {
	case *TableScan:
		return describeScan(ops)
	case *BatchSource:
		return fmt.Sprintf("Materialized (%d rows)", o.Data.Len())
	case *OneRow:
		return "OneRow"
	case *Filter:
		return fmt.Sprintf("Filter (%v)", o.Pred)
	case *Project:
		names := make([]string, len(o.Out.Cols))
		for i, c := range o.Out.Cols {
			names[i] = c.Name
		}
		return fmt.Sprintf("Project (%s)", strings.Join(names, ", "))
	case *Limit:
		if o.Offset > 0 {
			return fmt.Sprintf("Limit %d offset %d", o.N, o.Offset)
		}
		return fmt.Sprintf("Limit %d", o.N)
	case *Distinct:
		return "Distinct"
	case *Sort:
		in := o.Input.Schema()
		keys := make([]string, len(o.Keys))
		for i, k := range o.Keys {
			keys[i] = in.Cols[k.Col].Name
			if k.Desc {
				keys[i] += " desc"
			}
		}
		return fmt.Sprintf("Sort (%s)%s", strings.Join(keys, ", "), workersNote(o.Workers))
	case *HashAggregate:
		return fmt.Sprintf("HashAggregate (%s)%s", strings.Join(o.Names, ", "), workersNote(o.Workers))
	case *HashJoin:
		ls, rs := o.Left.Schema(), o.Right.Schema()
		conds := make([]string, len(o.LeftKeys))
		for i := range o.LeftKeys {
			conds[i] = ls.Cols[o.LeftKeys[i]].Name + " = " + rs.Cols[o.RightKeys[i]].Name
		}
		s := fmt.Sprintf("HashJoin %s (%s)", joinTypeName(o.Type), strings.Join(conds, ", "))
		if o.Residual != nil {
			s += fmt.Sprintf(" residual (%v)", o.Residual)
		}
		return s + workersNote(o.Workers)
	case *NestedLoopJoin:
		s := "NestedLoopJoin " + joinTypeName(o.Type)
		if o.On != nil {
			s += fmt.Sprintf(" on (%v)", o.On)
		}
		return s
	case *UnionAll:
		return fmt.Sprintf("UnionAll (%d inputs)", len(o.Inputs))
	case *Gather:
		n := 0
		for _, op := range ops {
			if g, ok := op.(*Gather); ok {
				n += len(g.Fragments)
			}
		}
		return fmt.Sprintf("Gather (fragments=%d)", n)
	}
	return fmt.Sprintf("%T", ops[0])
}

// describeScan labels a scan clone-set with its shard routing: a
// pinned single shard (point-predicate pruning, literal or parameter)
// or a full scan over every shard, plus the morsel fan-out when the
// set holds clones.
func describeScan(ops []Operator) string {
	s0 := ops[0].(*TableScan)
	label := "Scan " + s0.Table.Name()
	nShards := 1
	if sh, ok := s0.Table.(storage.Sharded); ok {
		nShards = sh.NumShards()
	}
	shards := make(map[int]bool)
	for _, op := range ops {
		if ts, ok := op.(*TableScan); ok && ts.Shard > 0 {
			shards[ts.Shard] = true
		}
	}
	switch {
	case len(ops) == 1 && s0.Shard > 0:
		label += fmt.Sprintf(" [shard %d/%d]", s0.Shard, nShards)
	case len(ops) == 1 && nShards > 1:
		label += fmt.Sprintf(" [%d shards]", nShards)
	case len(ops) > 1 && len(shards) > 1:
		label += fmt.Sprintf(" [%d shards, %d morsels]", len(shards), len(ops))
	case len(ops) > 1:
		label += fmt.Sprintf(" [%d morsels]", len(ops))
	}
	return label
}

func joinTypeName(t JoinType) string {
	switch t {
	case InnerJoin:
		return "inner"
	case LeftJoin:
		return "left"
	case CrossJoin:
		return "cross"
	}
	return fmt.Sprintf("JoinType(%d)", t)
}

func workersNote(w int) string {
	if w > 1 {
		return fmt.Sprintf(" [workers=%d]", w)
	}
	return ""
}

// statsSuffix renders a clone set's merged counters (see setReport).
func statsSuffix(ops []Operator) string {
	r := setReport(ops)
	s := fmt.Sprintf(" (rows=%d batches=%d time=%s)",
		r.Rows, r.Batches, time.Duration(r.Nanos).Round(time.Microsecond))
	if r.SpillRuns > 0 {
		s += fmt.Sprintf(" spilled=%dB/%druns", r.SpillBytes, r.SpillRuns)
	}
	if _, ok := ops[0].(*HashJoin); ok {
		// Clones share one build: count it once, and sum their probes.
		var build, probe int64
		seen := make(map[*joinBuild]bool)
		for _, op := range ops {
			if j, ok := op.(*HashJoin); ok {
				b, p := j.BuildProbeRows()
				if !seen[j.build()] {
					seen[j.build()] = true
					build += b
				}
				probe += p
			}
		}
		s += fmt.Sprintf(" [build=%d probe=%d]", build, probe)
	}
	return s
}

// OpReport is one logical plan node's accumulated counters, in
// pre-order plan position — the structured form of EXPLAIN ANALYZE
// that the statement tracer turns into per-operator spans. Nanos is
// inclusive of child pulls (an operator's clock runs while it waits on
// its input), so reports must not be summed across depths.
type OpReport struct {
	Name       string // the EXPLAIN describe line, without counters
	Depth      int
	Rows       int64
	Batches    int64
	Nanos      int64
	SpillBytes int64
	SpillRuns  int64
}

// StatsReport walks the plan like Explain does — clone sets collapse
// to one logical node (see setReport) — and returns the per-node
// reports.
func StatsReport(op Operator) []OpReport {
	var out []OpReport
	reportSet([]Operator{op}, 0, &out)
	return out
}

func reportSet(ops []Operator, depth int, out *[]OpReport) {
	ops = unwrapSet(ops)
	if len(ops) == 0 {
		return
	}
	r := setReport(ops)
	r.Name, r.Depth = describeSet(ops), depth
	*out = append(*out, r)
	for _, kids := range childSets(ops) {
		reportSet(kids, depth+1, out)
	}
}

// setReport merges the counters of a clone set. The clones partition
// the logical node's rows, so rows, batches and spill sum to the serial
// plan's counts exactly. They run concurrently, so the node's time is
// the slowest clone's, which stays within the statement's wall clock.
func setReport(ops []Operator) OpReport {
	var r OpReport
	for _, op := range ops {
		if st := StatsOf(op); st != nil {
			r.Rows += st.Rows.Load()
			r.Batches += st.Batches.Load()
			r.Nanos = max(r.Nanos, st.Nanos.Load())
			r.SpillBytes += st.SpillBytes.Load()
			r.SpillRuns += st.SpillRuns.Load()
		}
	}
	return r
}

// Summary is the compact single-line plan shape recorded by the
// slow-query log: operator names with their child structure, no
// predicates or counters.
func Summary(op Operator) string {
	switch o := op.(type) {
	case *ctxOperator:
		return Summary(o.input)
	case *TableScan:
		return "Scan(" + o.Table.Name() + ")"
	case *BatchSource:
		return "Materialized"
	case *OneRow:
		return "OneRow"
	case *Filter:
		return "Filter(" + Summary(o.Input) + ")"
	case *Project:
		return "Project(" + Summary(o.Input) + ")"
	case *Limit:
		return "Limit(" + Summary(o.Input) + ")"
	case *Distinct:
		return "Distinct(" + Summary(o.Input) + ")"
	case *Sort:
		return "Sort(" + Summary(o.Input) + ")"
	case *HashAggregate:
		return "Agg(" + Summary(o.Input) + ")"
	case *HashJoin:
		return "HashJoin(" + Summary(o.Left) + "," + Summary(o.Right) + ")"
	case *NestedLoopJoin:
		return "NLJoin(" + Summary(o.Left) + "," + Summary(o.Right) + ")"
	case *UnionAll:
		parts := make([]string, len(o.Inputs))
		for i, in := range o.Inputs {
			parts[i] = Summary(in)
		}
		return "Union(" + strings.Join(parts, ",") + ")"
	case *Gather:
		return fmt.Sprintf("Gather[%d](%s)", len(o.Fragments), Summary(o.Fragments[0]))
	}
	return fmt.Sprintf("%T", op)
}
