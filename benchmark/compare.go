package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is a metric's run-to-run spread: the distance between its
// quartiles over the repeats, as a share of the median. A file with one
// repeat has no spread to show.
func (m metricReport) spread() float64 { return ratio(m.Q3-m.Q1, m.Value) }

// compareFiles prints one row per workload and end-to-end metric: both
// medians with their quartiles, the ratio b/a, and a verdict from the
// bounds in BENCHMARK.json. It fails if any row is worse.
//
//	ok          b is not worse than a by more than the bound
//	worse       b is worse than a by more than the bound
//	unresolved  not worse, but either side's spread is wider than the
//	            bound, so "unchanged" cannot be claimed
func compareFiles(spec *benchmarkSpec, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("a = %s (commit %s, seed %d, %d repeats)\nb = %s (commit %s, seed %d, %d repeats)\n",
		pathA, a.Stamp.Commit, a.Stamp.Seed, a.Stamp.Repeat, pathB, b.Stamp.Commit, b.Stamp.Seed, b.Stamp.Repeat)
	fmt.Printf("%-13s %-11s %-5s %12s %25s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "unit", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a", "bound", "verdict")
	worse := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		for _, m := range spec.EndToEnd {
			ma, okA := wa.EndToEnd[m.Name]
			mb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			change := ratio(mb.Value-ma.Value, ma.Value) // positive = b larger
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
				worse++
			case ma.spread() > m.Bound || mb.spread() > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-13s %-11s %-5s %12.6g %25s %12.6g %25s %9.4f %6.2f  %s\n",
				name, m.Name, m.Unit, ma.Value, fmt.Sprintf("[%.6g, %.6g]", ma.Q1, ma.Q3),
				mb.Value, fmt.Sprintf("[%.6g, %.6g]", mb.Q1, mb.Q3), ratio(mb.Value, ma.Value), m.Bound, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("%-13s %-11s b failed %d of %d operations, a %d of %d  worse\n", name, "failed", wb.Failed, wb.Attempted, wa.Failed, wa.Attempted)
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows worse than their bound", worse)
	}
	return nil
}
