// Package core implements Vertexica's contribution: a Pregel-style
// vertex-centric execution layer that runs entirely on the relational
// engine. Graphs live in three relational tables (vertex, edge,
// message); a coordinator "stored procedure" drives supersteps; worker
// "UDFs" execute the user's vertex-compute function over hash-
// partitioned, sorted unions of the three tables (§2.2–2.3 of the
// paper), with the paper's four optimizations implemented: Table
// Unions, Parallel Workers, Vertex Batching, and Update-vs-Replace.
package core

import "fmt"

// Edge is one out-edge as seen by a vertex program, including the
// metadata attributes the paper's datasets carry (weight, creation
// timestamp, and type).
type Edge struct {
	Src     int64
	Dst     int64
	Weight  float64
	Type    string
	Created int64
}

// Message is a value in flight between two vertices across a superstep
// barrier. Values are strings: the vertex table stores the vertex value
// as VARCHAR and algorithms bring their own codecs, mirroring how the
// paper's UDFs parse untyped tuples.
type Message struct {
	Src   int64
	Dst   int64
	Value string
}

// VertexProgram is the user-supplied graph query: Compute runs once per
// superstep for every active vertex, exactly like Pregel.
type VertexProgram interface {
	// Compute receives the vertex context and this superstep's incoming
	// messages. Implementations mutate state through the context
	// (ModifyVertexValue, SendMessage, VoteToHalt).
	Compute(ctx *VertexContext, msgs []Message) error
}

// Combiner declares how the messages headed to one destination vertex
// merge before delivery (Pregel's message combiner, e.g. SUM for
// PageRank, MIN for SSSP): Kind over the values read as DOUBLE, or as
// BIGINT when Int is set. A destination with one message receives it
// unchanged; several fold, in (src, value) order, into one message
// from src -1. A value that does not parse fails the run.
type Combiner struct {
	Kind AggregatorKind
	Int  bool
}

// String names the combiner, e.g. "SUM over DOUBLE".
func (c Combiner) String() string {
	typ := "DOUBLE"
	if c.Int {
		typ = "BIGINT"
	}
	return [...]string{"SUM", "MIN", "MAX"}[c.Kind] + " over " + typ
}

// AggregatorKind enumerates the global aggregators supported.
type AggregatorKind uint8

// Aggregator kinds.
const (
	AggregateSum AggregatorKind = iota
	AggregateMin
	AggregateMax
)

// AggregatorSpec declares a named global aggregator a program uses.
type AggregatorSpec struct {
	Name string
	Kind AggregatorKind
}

// HasAggregators is implemented by programs that use global aggregators.
type HasAggregators interface {
	Aggregators() []AggregatorSpec
}

// HasCombiner is implemented by programs that provide a message
// combiner.
type HasCombiner interface {
	Combiner() Combiner
}

// VertexContext exposes the worker API from the paper
// (getVertexValue, getMessages, getOutEdges, modifyVertexValue,
// sendMessage, voteToHalt) to the vertex program.
type VertexContext struct {
	id        int64
	superstep int
	value     string
	halted    bool
	outEdges  []Edge
	numVerts  int64

	valueChanged bool
	votedHalt    bool
	outbox       []Message

	aggPrev map[string]float64 // previous superstep's aggregate values
	aggCur  map[string]float64 // this vertex's contributions
	aggKind map[string]AggregatorKind
}

// Id returns the vertex id.
func (c *VertexContext) Id() int64 { return c.id }

// Superstep returns the current superstep number (0-based).
func (c *VertexContext) Superstep() int { return c.superstep }

// NumVertices returns the number of vertices in the graph.
func (c *VertexContext) NumVertices() int64 { return c.numVerts }

// GetVertexValue returns the current vertex value.
func (c *VertexContext) GetVertexValue() string { return c.value }

// ModifyVertexValue sets the vertex value; the coordinator writes it
// back through the Update-vs-Replace policy after the superstep.
func (c *VertexContext) ModifyVertexValue(v string) {
	if v != c.value {
		c.value = v
		c.valueChanged = true
	}
}

// GetOutEdges returns the vertex's out-edges ordered by destination,
// parallel edges in edge-table order. The slice is a window of the
// run's shared edge array: read it, do not modify it.
func (c *VertexContext) GetOutEdges() []Edge { return c.outEdges }

// OutDegree returns the number of out-edges.
func (c *VertexContext) OutDegree() int { return len(c.outEdges) }

// SendMessage sends a value to another vertex for the next superstep.
func (c *VertexContext) SendMessage(dst int64, value string) {
	c.outbox = append(c.outbox, Message{Src: c.id, Dst: dst, Value: value})
}

// SendMessageToAllNeighbors sends the value along every out-edge.
func (c *VertexContext) SendMessageToAllNeighbors(value string) {
	for _, e := range c.outEdges {
		c.SendMessage(e.Dst, value)
	}
}

// VoteToHalt marks the vertex halted; an incoming message reactivates
// it (Pregel semantics).
func (c *VertexContext) VoteToHalt() { c.votedHalt = true }

// Aggregate contributes a value to a named global aggregator; the
// merged result is visible to every vertex in the NEXT superstep.
func (c *VertexContext) Aggregate(name string, v float64) error {
	kind, ok := c.aggKind[name]
	if !ok {
		return fmt.Errorf("core: vertex %d aggregated to undeclared aggregator %q", c.id, name)
	}
	if cur, ok := c.aggCur[name]; ok {
		v = foldAggregate(kind, cur, v)
	}
	c.aggCur[name] = v
	return nil
}

// AggregatedValue returns the previous superstep's merged value of a
// named aggregator. ok is false in superstep 0 or for unknown names.
func (c *VertexContext) AggregatedValue(name string) (float64, bool) {
	v, ok := c.aggPrev[name]
	return v, ok
}
