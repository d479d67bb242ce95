// Command vxbench reproduces the paper's evaluation: Figure 2(a)
// PageRank and Figure 2(b) Shortest Paths across the four systems
// (graph database, Giraph, Vertexica vertex-centric, Vertexica SQL) and
// the three paper-shaped datasets, plus the §2.3 optimization
// ablations. It prints paper-style tables and verifies the qualitative
// shape of Figure 2.
//
// Usage:
//
//	vxbench -fig all -scale 0.01
//	vxbench -fig 2a -scale 0.02 -iters 10
//	vxbench -ablations -scale 0.01
//	vxbench -serve -scale 0.01          # study S: serving throughput
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	preparebench "repro/internal/bench/prepare"
	"repro/internal/bench/serve"
	spillbench "repro/internal/bench/spill"
	"repro/internal/bench/stream"
)

func main() {
	fig := flag.String("fig", "all", "which figure to reproduce: 2a, 2b, all, or none")
	scale := flag.Float64("scale", 0.01, "dataset scale relative to the paper's sizes (1.0 = full)")
	iters := flag.Int("iters", 10, "PageRank iterations (paper: 10)")
	gdbLimit := flag.Int("gdb-limit", 60000, "edge count above which the graph-database baseline is skipped (0 = never skip)")
	ablations := flag.Bool("ablations", false, "also run the §2.3 optimization ablations")
	serveStudy := flag.Bool("serve", false, "run study S: concurrent-client serving throughput against an in-process vxserve")
	serveOps := flag.Int("serve-ops", 40, "study S: queries per client")
	serveBudget := flag.Int("serve-budget", runtime.NumCPU(), "study S: global worker budget")
	streamStudy := flag.Bool("stream", false, "run study T: first-row latency + allocation, materialized vs streamed execution")
	streamOut := flag.String("stream-out", "BENCH_stream.json", "study T: JSON trajectory file path (empty = don't write)")
	prepareStudy := flag.Bool("prepare", false, "run study Q: prepared-execution throughput, cached plans vs re-parse-per-exec substitution")
	prepareOut := flag.String("prepare-out", "BENCH_prepare.json", "study Q: JSON trajectory file path (empty = don't write)")
	prepareWindow := flag.Duration("prepare-window", 300*time.Millisecond, "study Q: measured interval per cell")
	spillStudy := flag.Bool("spill", false, "run study M: out-of-core sort/join/agg throughput under a 64KB grant, with a peak-heap bound")
	spillOut := flag.String("spill-out", "BENCH_spill.json", "study M: JSON trajectory file path (empty = don't write)")
	spillWindow := flag.Duration("spill-window", 500*time.Millisecond, "study M: measured interval per cell")
	giraphOverhead := flag.Duration("giraph-overhead", 0, "modeled Giraph per-superstep coordination (0 = default 80ms, negative = off)")
	flag.Parse()

	cfg := bench.Fig2Config{
		Scale:            *scale,
		PageRankIters:    *iters,
		GraphDBEdgeLimit: *gdbLimit,
		GiraphOverhead:   *giraphOverhead,
	}
	ctx := context.Background()

	fmt.Printf("vxbench: scale=%.4f iters=%d (paper sizes ×%.4f)\n", *scale, *iters, *scale)
	for _, ds := range bench.Fig2Datasets(*scale) {
		fmt.Println("  " + ds.Stats())
	}

	var allRows []bench.Row
	if *fig == "2a" || *fig == "all" {
		start := time.Now()
		rows, err := bench.RunFig2(ctx, "pagerank", cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintRows(os.Stdout, fmt.Sprintf("Figure 2(a): PageRank (%d iterations) — took %v", *iters, time.Since(start).Round(time.Millisecond)), rows)
		allRows = append(allRows, rows...)
	}
	if *fig == "2b" || *fig == "all" {
		start := time.Now()
		rows, err := bench.RunFig2(ctx, "sssp", cfg)
		if err != nil {
			fatal(err)
		}
		bench.PrintRows(os.Stdout, fmt.Sprintf("Figure 2(b): Single-Source Shortest Paths — took %v", time.Since(start).Round(time.Millisecond)), rows)
		allRows = append(allRows, rows...)
	}

	if len(allRows) > 0 {
		violations := bench.CheckFig2Shape(allRows)
		if len(violations) == 0 {
			fmt.Println("\nshape check: PASS — graph DB slowest, Vertexica(SQL) fastest, Vertexica beats Giraph on the small graph")
		} else {
			fmt.Println("\nshape check: FAIL")
			for _, v := range violations {
				fmt.Println("  " + v)
			}
		}
	}

	if *ablations {
		runAblations(*scale)
	}
	if *serveStudy {
		runServeStudy(*scale, *serveOps, *serveBudget)
	}
	if *streamStudy {
		runStreamStudy(*scale, *streamOut)
	}
	if *prepareStudy {
		runPrepareStudy(*prepareWindow, *prepareOut)
	}
	if *spillStudy {
		runSpillStudy(*scale, *spillWindow, *spillOut)
	}
}

// runSpillStudy measures rows/s for a sort, a hash join and a hash
// aggregate over a fact table several times a 64KB per-statement
// grant, in memory versus forced out of core, asserting the budgeted
// cells spill and stay under a peak-heap bound, recording the
// trajectory in BENCH_spill.json.
func runSpillStudy(scale float64, window time.Duration, out string) {
	fmt.Printf("\n=== study M: out-of-core execution (scale=%.4f, %v/cell) ===\n", scale, window)
	rows, err := spillbench.Study(scale, window, out)
	if err != nil {
		fatal(err)
	}
	bench.PrintAblation(os.Stdout, rows)
	if out != "" {
		fmt.Printf("trajectory written to %s\n", out)
	}
}

// runPrepareStudy measures queries/s for a point lookup and a 1-hop
// neighbor join executed through the prepared-plan cache versus
// re-parsed from substituted text on every execution, recording the
// trajectory in BENCH_prepare.json.
func runPrepareStudy(window time.Duration, out string) {
	fmt.Printf("\n=== study Q: prepared execution (%v/cell) ===\n", window)
	rows, err := preparebench.Study(window, out)
	if err != nil {
		fatal(err)
	}
	bench.PrintAblation(os.Stdout, rows)
	if out != "" {
		fmt.Printf("trajectory written to %s\n", out)
	}
}

// runStreamStudy measures materialized vs streamed result delivery
// and records the trajectory in BENCH_stream.json.
func runStreamStudy(scale float64, out string) {
	fmt.Printf("\n=== study T: streaming execution (scale=%.4f) ===\n", scale)
	rows, err := stream.Study(scale, out)
	if err != nil {
		fatal(err)
	}
	bench.PrintAblation(os.Stdout, rows)
	if out != "" {
		fmt.Printf("trajectory written to %s\n", out)
	}
}

// runServeStudy reproduces the serving claim: queries/sec at 1, 4 and
// 16 concurrent client connections against one engine, with the
// global worker budget asserted never to overshoot.
func runServeStudy(scale float64, ops, budget int) {
	fmt.Printf("\n=== study S: serving throughput (budget=%d, %d ops/client) ===\n", budget, ops)
	rows, err := serve.Throughput(scale, []int{1, 4, 16}, ops, budget)
	if len(rows) > 0 {
		bench.PrintAblation(os.Stdout, rows)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("budget check: PASS — budget gauge consistent (high-water ≤ capacity, slots drained)")
}

func runAblations(scale float64) {
	fmt.Println("\n=== §2.3 optimization ablations (PageRank on twitter-s unless noted) ===")
	workers := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		if n > 2 {
			workers = append(workers, 2)
		}
		workers = append(workers, n)
	}
	if rows, err := bench.AblationSQLParallel(scale, 5, workers); err == nil {
		bench.PrintAblation(os.Stdout, rows)
	} else {
		fatal(err)
	}
	if rows, err := bench.AblationUnionVsJoin(scale, 5); err == nil {
		bench.PrintAblation(os.Stdout, rows)
	} else {
		fatal(err)
	}
	if rows, err := bench.AblationInputCache(scale, 5); err == nil {
		bench.PrintAblation(os.Stdout, rows)
	} else {
		fatal(err)
	}
	if rows, err := bench.AblationBatching(scale, 5, []int{1, 4, 16, 64, 256}); err == nil {
		bench.PrintAblation(os.Stdout, rows)
	} else {
		fatal(err)
	}
	if rows, err := bench.AblationWorkers(scale, 5, []int{1, 2, 4, 8}); err == nil {
		bench.PrintAblation(os.Stdout, rows)
	} else {
		fatal(err)
	}
	if rows, err := bench.AblationUpdateVsReplace(scale, 5); err == nil {
		bench.PrintAblation(os.Stdout, rows)
	} else {
		fatal(err)
	}
	if rows, err := bench.AblationCombiner(scale, 5); err == nil {
		bench.PrintAblation(os.Stdout, rows)
	} else {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxbench:", err)
	os.Exit(1)
}
