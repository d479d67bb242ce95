// Command vertexica is the interactive console standing in for the
// demo's GUI (Figure 3): load graphs, run SQL, run vertex-centric and
// SQL graph algorithms, compose them, and compare against the Giraph
// baseline — the demonstration scenarios of §4, driven from a REPL.
//
// Usage:
//
//	vertexica                        # in-memory
//	vertexica -data ./vxdata         # persistent (snapshot + WAL)
//	vertexica -connect 127.0.0.1:5433  # drive a remote vxserve
//
// Console commands (\help lists them):
//
//	\load twitter 0.01            load a paper-shaped dataset
//	\loadfile g edges.txt         load a SNAP edge list
//	\pagerank twitter 10          vertex-centric PageRank (= PAGERANK twitter 10)
//	\pagerank-sql twitter 10      SQL PageRank (= PAGERANK_SQL twitter 10)
//	\sssp twitter 0               shortest paths from vertex 0
//	\triangles twitter            SQL triangle count
//	\overlap twitter 3            strong overlap pairs
//	\weakties twitter 3           weak ties
//	\compare twitter 10           PageRank: Vertexica vs Giraph runtimes
//	SELECT ...                    any SQL against the graph tables
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/giraph"

	vertexica "repro"
)

// result is what a statement returns on either side of the wire.
type result interface {
	Columns() []string
	Len() int
	Value(row, col int) vertexica.Value
}

// console is the prompt's statement executor: the embedded engine or a
// remote vxserve connection. Everything typed at the prompt — SQL,
// session control, graph statements — goes through run; the backslash
// graph commands are sugar for the graph statement of the same name.
type console struct {
	run func(stmt string) (result, int, error)
	vx  *vertexica.Engine // nil when driving a remote server
}

func main() {
	dataDir := flag.String("data", "", "persistence directory (empty = in-memory)")
	connect := flag.String("connect", "", "connect to a remote vxserve at host:port instead of running embedded")
	flag.Parse()

	var con console
	if *connect != "" {
		c, err := client.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vertexica: connect:", err)
			os.Exit(1)
		}
		defer c.Close()
		con = remoteConsole(c)
		fmt.Printf("Vertexica console — connected to %s (session %d)\n", *connect, c.SessionID())
		fmt.Printf("server: %s\n", c.ServerInfo())
	} else {
		vx := vertexica.New()
		if *dataDir != "" {
			var err error
			if vx, err = vertexica.Open(*dataDir); err != nil {
				fmt.Fprintln(os.Stderr, "vertexica:", err)
				os.Exit(1)
			}
		}
		defer vx.Close()
		con = localConsole(vx)
		fmt.Println("Vertexica console — \\help for commands, \\quit to exit")
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for {
		fmt.Print("vertexica> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "\\") {
			con.statement(line)
		} else if quit := con.command(line); quit {
			return
		}
	}
}

func localConsole(vx *vertexica.Engine) console {
	return console{vx: vx, run: func(stmt string) (result, int, error) {
		rows, n, err := vx.SQL(stmt)
		if err != nil || rows == nil {
			return nil, n, err
		}
		return rows, n, nil
	}}
}

func remoteConsole(c *client.Conn) console {
	return console{run: func(stmt string) (result, int, error) {
		rows, n, err := c.RunSQL(context.Background(), stmt)
		if err != nil || rows == nil {
			return nil, n, err
		}
		return rows, n, nil
	}}
}

// graphStatement turns a backslash graph command into the graph
// statement it is sugar for: \pagerank-sql g 10 is PAGERANK_SQL g 10.
func graphStatement(line string) string {
	verb, rest, _ := strings.Cut(strings.TrimPrefix(line, "\\"), " ")
	return strings.ToUpper(strings.ReplaceAll(verb, "-", "_")) + " " + rest
}

// statement runs one statement and prints its outcome: a per-algorithm
// digest for the graph statements that have one, the first rows of
// anything else.
func (con console) statement(stmt string) {
	start := time.Now()
	rows, n, err := con.run(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if rows == nil {
		fmt.Printf("OK, %d rows affected (%v)\n", n, time.Since(start).Round(time.Microsecond))
		return
	}
	if summary, ok := digest(stmt, rows); ok {
		fmt.Printf("%s(%v)\n", summary, time.Since(start).Round(time.Millisecond))
		return
	}
	cols := rows.Columns()
	fmt.Println(strings.Join(cols, " | "))
	limit := rows.Len()
	if limit > 25 {
		limit = 25
	}
	for i := 0; i < limit; i++ {
		parts := make([]string, len(cols))
		for j := range cols {
			parts[j] = rows.Value(i, j).String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	if rows.Len() > limit {
		fmt.Printf("... (%d rows total)\n", rows.Len())
	}
	fmt.Printf("%d rows (%v)\n", rows.Len(), time.Since(start).Round(time.Microsecond))
}

// digest summarizes a PAGERANK, SSSP or COMPONENTS result (vertex-centric
// or _SQL; PageRank's top ten are printed, the others fit the returned
// line) and reports whether stmt was one of those. The statement's verb
// decides, never the result's column names: SQL that selects a column
// called rank or dist prints as rows.
func digest(stmt string, rows result) (summary string, ok bool) {
	switch strings.TrimSuffix(strings.ToUpper(strings.Fields(stmt)[0]), "_SQL") {
	case "PAGERANK":
		ranks := make(map[int64]float64, rows.Len())
		for i := 0; i < rows.Len(); i++ {
			ranks[rows.Value(i, 0).I] = rows.Value(i, 1).F
		}
		printTop(ranks, 10)
		return "", true
	case "SSSP":
		reach := 0
		for i := 0; i < rows.Len(); i++ {
			if rows.Value(i, 1).F < 1e17 {
				reach++
			}
		}
		return fmt.Sprintf("%d vertices reachable ", reach), true
	case "COMPONENTS":
		sizes := map[int64]int{}
		for i := 0; i < rows.Len(); i++ {
			sizes[rows.Value(i, 1).I]++
		}
		return fmt.Sprintf("%d components ", len(sizes)), true
	}
	return "", false
}

func (con console) command(line string) (quit bool) {
	fields := strings.Fields(line)
	arg := func(i int, def string) string {
		if len(fields) > i {
			return fields[i]
		}
		return def
	}
	argInt := func(i int, def int64) int64 {
		if v, err := strconv.ParseInt(arg(i, ""), 10, 64); err == nil {
			return v
		}
		return def
	}

	switch cmd := fields[0]; cmd {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Println(`graph statements (also accepted without the backslash, as SQL: PAGERANK g 10):
  \load <twitter|gplus|livejournal> <scale>   generate + load a paper-shaped graph
  \graphs                                     list loaded graphs
  \pagerank <graph> [iters]                   vertex-centric PageRank (top 10)
  \pagerank-sql <graph> [iters]               SQL PageRank (top 10)
  \sssp <graph> [source] [unit]               vertex-centric shortest paths
  \sssp-sql <graph> [source] [unit]           SQL shortest paths
  \components <graph>                         connected components
  \components-sql <graph>                     SQL connected components
  \triangles <graph>                          SQL triangle count
  EXPLAIN [ANALYZE] <statement>               plan (and run) SQL or a graph statement
embedded console only:
  \loadfile <name> <path>                     load a SNAP edge list
  \overlap <graph> [minCommon]                strong overlap pairs
  \weakties <graph> [minPairs]                weak ties (bridges)
  \compare <graph> [iters]                    Vertexica vs Giraph PageRank runtime
  \checkpoint                                 persist (when -data is set)
everything else:
  SET statement_timeout = <ms> / SET parallelism = <n> / BEGIN / COMMIT / ROLLBACK
  <any SQL statement>`)
	case "\\loadfile", "\\overlap", "\\weakties", "\\compare", "\\checkpoint":
		if con.vx == nil {
			fmt.Println(cmd, "is not available on a remote connection")
			return false
		}
		if err := con.local(cmd, arg, argInt); err != nil {
			fmt.Println("error:", err)
		}
	default:
		con.statement(graphStatement(line))
	}
	return false
}

// local runs the commands that need the embedded engine's library API.
func (con console) local(cmd string, arg func(int, string) string, argInt func(int, int64) int64) error {
	vx := con.vx
	switch cmd {
	case "\\checkpoint":
		if err := vx.Checkpoint(); err != nil {
			return err
		}
		fmt.Println("checkpointed")
		return nil
	case "\\loadfile":
		f, err := os.Open(arg(2, ""))
		if err != nil {
			return err
		}
		ds, err := dataset.ReadEdgeList(arg(1, "g"), f, 42)
		f.Close()
		if err != nil {
			return err
		}
		g, err := vx.LoadDataset(ds)
		if err != nil {
			return err
		}
		fmt.Println("loaded", g)
		return nil
	}
	g, err := vx.OpenGraph(arg(1, ""))
	if err != nil {
		return err
	}
	switch cmd {
	case "\\overlap":
		pairs, err := g.StrongOverlap(argInt(2, 3))
		if err != nil {
			return err
		}
		for i, p := range pairs {
			if i >= 10 {
				fmt.Printf("... (%d pairs total)\n", len(pairs))
				break
			}
			fmt.Printf("  (%d, %d): %d common neighbors\n", p.A, p.B, p.Common)
		}
	case "\\weakties":
		ties, err := g.WeakTies(argInt(2, 3))
		if err != nil {
			return err
		}
		for i, t := range ties {
			if i >= 10 {
				fmt.Printf("... (%d ties total)\n", len(ties))
				break
			}
			fmt.Printf("  vertex %d bridges %d open pairs\n", t.ID, t.Pairs)
		}
	case "\\compare":
		return compare(vx, g, int(argInt(2, 10)))
	}
	return nil
}

// compare reruns PageRank on Vertexica and the Giraph baseline — the
// GUI's "Compare With Giraph" checkbox.
func compare(vx *vertexica.Engine, g *vertexica.Graph, iters int) error {
	start := time.Now()
	if _, _, err := g.PageRank(context.Background(), iters); err != nil {
		return err
	}
	vxTime := time.Since(start)

	rows, _, err := vx.SQL(fmt.Sprintf("SELECT src, dst, weight FROM %s_edge", g.Name()))
	if err != nil {
		return err
	}
	ge := giraph.New(giraph.Config{})
	for i := 0; i < rows.Len(); i++ {
		ge.AddEdge(rows.Value(i, 0).I, rows.Value(i, 1).I, rows.Value(i, 2).F)
	}
	start = time.Now()
	if _, _, err := giraph.PageRank(ge, iters); err != nil {
		return err
	}
	fmt.Printf("Vertexica: %v   Giraph (modeled cluster): %v\n",
		vxTime.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	return nil
}

func printTop(scores map[int64]float64, k int) {
	type kv struct {
		id int64
		v  float64
	}
	all := make([]kv, 0, len(scores))
	for id, v := range scores {
		all = append(all, kv{id, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	for _, e := range all {
		fmt.Printf("  %8d  %.6f\n", e.id, e.v)
	}
}
