package core

import (
	"fmt"
	"time"
)

// EXPLAIN rendering for vertex-centric runs. The SQL front end accepts
// EXPLAIN [ANALYZE] <verb> <args...> for graph verbs; the engine routes
// it to the graph runtime through a hook (the engine package cannot
// import core), and the facade's hook lands here. Plain EXPLAIN renders
// the schedule a run WOULD use — resolved options, shard/partition
// alignment, input-assembly mode, cache policy, write-back policy —
// without touching the graph tables beyond the catalog and row counts.

// ResolveOptions resolves opts the way a run would: defaults filled in
// with the graph's shard count so a defaulted partition count lands on
// a multiple of the shards (see withDefaultsSharded). It returns the
// resolved options and the vertex table's shard count.
func ResolveOptions(g *Graph, opts Options) (Options, int, error) {
	vt, err := g.DB.Catalog().Get(g.VertexTable())
	if err != nil {
		return opts, 0, err
	}
	shards := vt.NumShards()
	return opts.withDefaultsSharded(shards), shards, nil
}

// ExplainRun renders the superstep schedule for running prog, shown
// as program (a display name like "pagerank iterations=10"), on g
// under opts.
func ExplainRun(g *Graph, program string, prog VertexProgram, opts Options) ([]string, error) {
	o, shards, err := ResolveOptions(g, opts)
	if err != nil {
		return nil, err
	}
	nv, err := g.NumVertices()
	if err != nil {
		return nil, err
	}
	ne, err := g.NumEdges()
	if err != nil {
		return nil, err
	}

	lines := []string{
		fmt.Sprintf("%s on graph %q (vertex-centric)", program, g.Name),
		fmt.Sprintf("  graph: %d vertices, %d edges; tables sharded %d-way (vertex by id, edge by src, message by dst)",
			nv, ne, shards),
	}

	layout := fmt.Sprintf("  layout: %d hash partitions of the input union, %d workers", o.Partitions, o.Workers)
	if shards > 1 && o.Partitions%shards == 0 {
		layout += fmt.Sprintf("; partitions = %d x shards, so each partition reads one shard of each table (shard-local gathers)", o.Partitions/shards)
	} else if shards > 1 {
		layout += fmt.Sprintf("; partitions not a multiple of %d shards, gathers cross shard boundaries", shards)
	}
	lines = append(lines, layout,
		"  input: table union of vertex+message rows, walked beside each partition's out-edges (paper's Table Unions)",
		"  input cache: edge side built once per run into one out-edge array per partition, sorted on (src, dst) and read in place every superstep; quiescent partitions skipped")
	combiner := "  combiner: none (every message delivered, sorted per destination partition)"
	if hc, ok := prog.(HasCombiner); ok {
		combiner = fmt.Sprintf("  combiner: %s, folded per destination partition", hc.Combiner())
	}
	lines = append(lines, combiner,
		fmt.Sprintf("  write-back: update in place when <%d%% of tuples changed, else replace the table",
			int(updateThreshold*100)),
		fmt.Sprintf("  schedule: up to %d supersteps; each superstep:", o.MaxSupersteps),
		"    1. read the vertex+message union batch by batch, hash partition it, sort each active partition on (id, kind, i1)",
		fmt.Sprintf("    2. dispatch active partitions to %d workers; each walks its rows beside its edge array, Compute runs per vertex", o.Workers),
		"    3. sort (and combine) each destination partition's messages in parallel, merge them into the message table",
		"    4. write back changed vertex values (update vs replace)",
		"  halt: every vertex halted and no messages pending, or the superstep bound",
	)
	return lines, nil
}

// ExplainSQL renders the plan shape of a SQL-flavored graph verb — the
// iterated relational implementation ("Vertexica (SQL)") that drives
// the engine with generated join+aggregate statements instead of the
// vertex-centric coordinator.
func ExplainSQL(g *Graph, program string, iterations int) ([]string, error) {
	nv, err := g.NumVertices()
	if err != nil {
		return nil, err
	}
	ne, err := g.NumEdges()
	if err != nil {
		return nil, err
	}
	lines := []string{
		fmt.Sprintf("%s on graph %q (iterated SQL)", program, g.Name),
		fmt.Sprintf("  graph: %d vertices, %d edges", nv, ne),
		"  plan: generated SQL per iteration — join the working table with the",
		"  edge table, aggregate per destination, swap the working table",
	}
	if iterations > 0 {
		lines = append(lines, fmt.Sprintf("  iterations: %d (fixed)", iterations))
	}
	return lines, nil
}

// ExplainStats folds a completed run's statistics into EXPLAIN ANALYZE
// output: a run summary, the cache economics, and one line per
// superstep.
func ExplainStats(rs *RunStats) []string {
	if rs == nil {
		return nil
	}
	lines := []string{
		fmt.Sprintf("  executed: supersteps=%d computed=%d messages=%d dangling=%d time=%s",
			rs.Supersteps, rs.TotalComputed, rs.TotalMessages, rs.DanglingMessages,
			rs.Duration.Round(time.Microsecond)),
		fmt.Sprintf("  cache: builds=%d hits=%d; skipped partitions=%d vertices=%d",
			rs.CacheBuilds, rs.CacheHits, rs.SkippedParts, rs.SkippedVerts),
	}
	for _, st := range rs.Steps {
		src := "build"
		if st.CacheHit {
			src = "hit"
		}
		wb := "update"
		if st.UsedReplace {
			wb = "replace"
		}
		lines = append(lines, fmt.Sprintf(
			"  superstep %2d: computed=%d messages=%d updated=%d input_rows=%d cache=%s write=%s skipped=%d/%d time=%s (input=%s compute=%s fold=%s write=%s)",
			st.Superstep, st.Computed, st.MessagesOut, st.Updated, st.InputRows,
			src, wb, st.SkippedParts, st.SkippedVerts, st.Duration.Round(time.Microsecond),
			st.InputTime.Round(time.Microsecond), st.ComputeTime.Round(time.Microsecond),
			st.FoldTime.Round(time.Microsecond), st.WriteTime.Round(time.Microsecond)))
	}
	return lines
}
