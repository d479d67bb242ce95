package server

import (
	"context"
	"strings"
	"testing"

	vertexica "repro"
	"repro/internal/testutil"
)

// TestGraphVerbArgumentValidation: every graph verb rejects missing,
// extra and malformed arguments with the same error on every surface —
// statement text, the wire's Graph frame, and EXPLAIN — instead of
// silently defaulting them (PAGERANK g ten used to run 10 iterations).
func TestGraphVerbArgumentValidation(t *testing.T) {
	eng := vertexica.New()
	if _, err := testutil.RandomGraph(5, 30, 90).Load(eng.DB(), "g"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng, Config{})
	c := dialT(t, addr)
	ctx := context.Background()

	cases := []struct {
		verb    string // SQL spelling
		args    []string
		want    string
		explain bool // the verb has an EXPLAIN form
	}{
		{"GRAPHS", []string{"g"}, "graph verb GRAPHS: takes at most 0 arguments, got 1", false},
		{"LOAD", []string{"twitter", "big"}, `graph verb LOAD: argument 2 "big" is not a number`, false},
		{"LOAD", []string{"twitter", "0.001", "x"}, "graph verb LOAD: takes at most 2 arguments, got 3", false},
		{"LOAD", []string{"facebook", "0.001"}, `graph verb LOAD: unknown dataset "facebook"`, false},
		{"PAGERANK", nil, "graph verb PAGERANK: missing argument 1 (graph)", true},
		{"PAGERANK", []string{"g", "ten"}, `graph verb PAGERANK: argument 2 "ten" is not an integer`, true},
		{"PAGERANK", []string{"g", "3", "4"}, "graph verb PAGERANK: takes at most 2 arguments, got 3", true},
		{"PAGERANK_SQL", nil, "graph verb PAGERANK_SQL: missing argument 1 (graph)", true},
		{"PAGERANK_SQL", []string{"g", "1.5"}, `graph verb PAGERANK_SQL: argument 2 "1.5" is not an integer`, true},
		{"PAGERANK_SQL", []string{"g", "3", "4"}, "graph verb PAGERANK_SQL: takes at most 2 arguments, got 3", true},
		{"SSSP", nil, "graph verb SSSP: missing argument 1 (graph)", true},
		{"SSSP", []string{"g", "x"}, `graph verb SSSP: argument 2 "x" is not an integer`, true},
		{"SSSP", []string{"g", "0", "yes"}, `graph verb SSSP: argument 3 "yes" is not an integer`, true},
		{"SSSP", []string{"g", "0", "1", "2"}, "graph verb SSSP: takes at most 3 arguments, got 4", true},
		{"SSSP_SQL", nil, "graph verb SSSP_SQL: missing argument 1 (graph)", true},
		{"SSSP_SQL", []string{"g", "x"}, `graph verb SSSP_SQL: argument 2 "x" is not an integer`, true},
		{"SSSP_SQL", []string{"g", "0", "1", "2"}, "graph verb SSSP_SQL: takes at most 3 arguments, got 4", true},
		{"COMPONENTS", nil, "graph verb COMPONENTS: missing argument 1 (graph)", true},
		{"COMPONENTS", []string{"g", "1"}, "graph verb COMPONENTS: takes at most 1 arguments, got 2", true},
		{"COMPONENTS_SQL", nil, "graph verb COMPONENTS_SQL: missing argument 1 (graph)", true},
		{"COMPONENTS_SQL", []string{"g", "1"}, "graph verb COMPONENTS_SQL: takes at most 1 arguments, got 2", true},
		{"TRIANGLES", nil, "graph verb TRIANGLES: missing argument 1 (graph)", true},
		{"TRIANGLES", []string{"g", "1"}, "graph verb TRIANGLES: takes at most 1 arguments, got 2", true},
		{"FROBNICATE", []string{"g"}, `unknown graph verb "FROBNICATE"`, true},
	}
	for _, tc := range cases {
		text := strings.TrimSpace(tc.verb + " " + strings.Join(tc.args, " "))
		check := func(surface string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s via %s: err = %v, want %q", text, surface, err, tc.want)
			}
		}
		_, _, err := eng.SQL(text)
		check("text", err)
		_, err = c.Query(ctx, text)
		check("wire text", err)
		frameVerb := strings.ToLower(strings.ReplaceAll(tc.verb, "_", "-"))
		_, err = c.Graph(ctx, frameVerb, tc.args...)
		check("graph frame", err)
		if tc.explain {
			_, _, err = eng.SQL("EXPLAIN " + text)
			check("EXPLAIN", err)
			_, err = c.Query(ctx, "EXPLAIN ANALYZE "+text)
			check("wire EXPLAIN ANALYZE", err)
		}
	}

	// An empty argument (a console command with the graph name left
	// out) is a missing argument, not a graph named "".
	if _, err := c.Graph(ctx, "pagerank", ""); err == nil ||
		!strings.Contains(err.Error(), "graph verb PAGERANK: missing argument 1 (graph)") {
		t.Errorf("empty graph name: err = %v", err)
	}
	// A valid statement still runs on both spellings of the frame verb.
	if _, err := c.Graph(ctx, "pagerank-sql", "g", "2"); err != nil {
		t.Errorf("pagerank-sql frame: %v", err)
	}

	// The frame's verb must be one identifier: a SQL keyword or several
	// words would re-parse as a different statement, so they are refused
	// as unknown verbs instead of running as SQL.
	for _, verb := range []string{"select", "drop table g_edge", "pagerank g 2", "explain", "", "1"} {
		if _, err := c.Graph(ctx, verb, "1"); err == nil || !strings.Contains(err.Error(), "unknown graph verb") {
			t.Errorf("graph frame verb %q: err = %v, want an unknown-verb refusal", verb, err)
		}
	}
	if _, err := c.Query(ctx, "SELECT COUNT(*) FROM g_edge"); err != nil {
		t.Errorf("after hostile verbs: %v", err)
	}
}
