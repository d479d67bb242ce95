package algorithms

import (
	"context"
	"strconv"

	"repro/internal/core"
)

// ConnectedComponents labels every vertex with the minimum vertex id
// reachable from it (HCC / label propagation). On directed graphs it
// computes components over the edges as stored, so callers wanting weak
// connectivity should load a symmetrized edge set (the dataset package
// does this with MakeUndirected).
type ConnectedComponents struct{}

// Combiner implements core.HasCombiner: candidate labels combine by
// minimum.
func (ConnectedComponents) Combiner() core.Combiner {
	return core.Combiner{Kind: core.AggregateMin, Int: true}
}

// Compute implements core.VertexProgram.
func (ConnectedComponents) Compute(ctx *core.VertexContext, msgs []core.Message) error {
	if ctx.Superstep() == 0 {
		label := ctx.Id()
		ctx.ModifyVertexValue(strconv.FormatInt(label, 10))
		ctx.SendMessageToAllNeighbors(strconv.FormatInt(label, 10))
		ctx.VoteToHalt()
		return nil
	}
	cur, err := strconv.ParseInt(ctx.GetVertexValue(), 10, 64)
	if err != nil {
		cur = ctx.Id()
	}
	best := cur
	for _, m := range msgs {
		if l, err := strconv.ParseInt(m.Value, 10, 64); err == nil && l < best {
			best = l
		}
	}
	if best < cur {
		ctx.ModifyVertexValue(strconv.FormatInt(best, 10))
		ctx.SendMessageToAllNeighbors(strconv.FormatInt(best, 10))
	}
	ctx.VoteToHalt()
	return nil
}

// RunConnectedComponents resets the graph and returns each vertex's
// component label (the minimum id in its component).
func RunConnectedComponents(ctx context.Context, g *core.Graph, opts core.Options) (map[int64]int64, *core.RunStats, error) {
	if err := g.ResetForRun(func(int64) string { return "" }); err != nil {
		return nil, nil, err
	}
	stats, err := core.Run(ctx, g, ConnectedComponents{}, opts)
	if err != nil {
		return nil, nil, err
	}
	labels, err := labelValues(g)
	return labels, stats, err
}

// labelValues decodes every vertex value as an int64 label; a value
// that does not parse labels the vertex with its own id.
func labelValues(g *core.Graph) (map[int64]int64, error) {
	vals, err := g.VertexValues()
	if err != nil {
		return nil, err
	}
	out := make(map[int64]int64, len(vals))
	for id, s := range vals {
		l, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			l = id
		}
		out[id] = l
	}
	return out, nil
}
