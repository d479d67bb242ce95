package bench

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// The harness itself is exercised end-to-end at tiny scale; real runs
// happen through cmd/vxbench and the root benchmarks.

func TestRunFig2TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four systems")
	}
	cfg := Fig2Config{
		Scale:            0.002,
		PageRankIters:    3,
		GraphDBEdgeLimit: 5000,
		GiraphOverhead:   20 * time.Millisecond,
	}
	rows, err := RunFig2(context.Background(), "pagerank", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 (3 datasets × 4 systems)", len(rows))
	}
	seenDNF := false
	for _, r := range rows {
		if r.Note != "" {
			seenDNF = true
		}
		if r.Figure != "2a" {
			t.Errorf("figure tag = %q", r.Figure)
		}
	}
	if !seenDNF {
		t.Error("graph DB should DNF on the big datasets at this limit")
	}
}

func TestRunFig2RejectsUnknownPanel(t *testing.T) {
	if _, err := RunFig2(context.Background(), "fig9", Fig2Config{}); err == nil {
		t.Error("unknown panel should error")
	}
}

func TestCheckFig2Shape(t *testing.T) {
	good := []Row{
		{Dataset: "d1", System: SysGraphDB, Seconds: 10},
		{Dataset: "d1", System: SysGiraph, Seconds: 5},
		{Dataset: "d1", System: SysVertexica, Seconds: 1},
		{Dataset: "d1", System: SysVertexicaSQL, Seconds: 0.5},
	}
	if v := CheckFig2Shape(good); len(v) != 0 {
		t.Errorf("good shape flagged: %v", v)
	}
	bad := []Row{
		{Dataset: "d1", System: SysGraphDB, Seconds: 0.1},
		{Dataset: "d1", System: SysGiraph, Seconds: 0.2},
		{Dataset: "d1", System: SysVertexica, Seconds: 1},
		{Dataset: "d1", System: SysVertexicaSQL, Seconds: 2},
	}
	v := CheckFig2Shape(bad)
	if len(v) != 3 {
		t.Errorf("want 3 violations (SQL, graphDB, giraph), got %v", v)
	}
	// DNF rows are excluded from comparisons.
	dnf := []Row{
		{Dataset: "d1", System: SysGraphDB, Note: "DNF"},
		{Dataset: "d1", System: SysVertexica, Seconds: 1},
		{Dataset: "d1", System: SysVertexicaSQL, Seconds: 0.5},
	}
	if v := CheckFig2Shape(dnf); len(v) != 0 {
		t.Errorf("DNF rows must not trigger violations: %v", v)
	}
}

func TestCheckFig2Agreement(t *testing.T) {
	rows := func(sqlVals map[int64]float64, giraphSteps int) []Row {
		return []Row{
			{Dataset: "d1", System: SysGraphDB, Note: "DNF"},
			{Dataset: "d1", System: SysGiraph, Values: map[int64]float64{1: 0.5, 2: math.Inf(1)}, Supersteps: giraphSteps},
			{Dataset: "d1", System: SysVertexica, Values: map[int64]float64{1: 0.5, 2: math.Inf(1)}, Supersteps: 6},
			{Dataset: "d1", System: SysVertexicaSQL, Values: sqlVals},
		}
	}
	// An SSSP map may omit an unreachable vertex; a rounding-level
	// difference is agreement.
	if v := CheckFig2Agreement(rows(map[int64]float64{1: 0.5 + 1e-12}, 6)); len(v) != 0 {
		t.Errorf("agreeing systems flagged: %v", v)
	}
	if v := CheckFig2Agreement(rows(map[int64]float64{1: 0.5, 2: 3}, 6)); len(v) != 1 {
		t.Errorf("want 1 value disagreement, got %v", v)
	}
	if v := CheckFig2Agreement(rows(map[int64]float64{1: 0.5}, 7)); len(v) != 1 {
		t.Errorf("want 1 superstep disagreement, got %v", v)
	}
}

func TestPrintRowsRendersDNF(t *testing.T) {
	var sb strings.Builder
	PrintRows(&sb, "T", []Row{
		{Dataset: "d", System: SysGraphDB, Note: "DNF (x)"},
		{Dataset: "d", System: SysVertexica, Seconds: 1.5},
	})
	out := sb.String()
	if !strings.Contains(out, "DNF") || !strings.Contains(out, "1.500") {
		t.Errorf("table rendering wrong:\n%s", out)
	}
}

func TestAblationsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations run several full analyses")
	}
	rows, err := AblationUnionVsJoin(0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Seconds <= 0 {
		t.Errorf("union-vs-join rows = %+v", rows)
	}
	cRows, err := AblationCombiner(0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cRows) != 2 {
		t.Errorf("combiner rows = %+v", cRows)
	}
	var sb strings.Builder
	PrintAblation(&sb, append(rows, cRows...))
	if !strings.Contains(sb.String(), "table unions") {
		t.Error("ablation printer lost study headers")
	}
}

func TestAblationSQLParallelTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full SQL analyses")
	}
	rows, err := AblationSQLParallel(0.001, 2, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 algorithms × 2 worker levels
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if strings.Contains(r.Extra, "RESULTS DIFFER") {
			t.Errorf("parallel SQL diverged from serial: %+v", r)
		}
	}
}
