package algorithms

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
)

// PageRank is the classic Pregel PageRank program: in superstep 0 every
// vertex starts at 1/N; in each later superstep it sets its rank to
// (1-d)/N + d·Σ(incoming) and, while iterations remain, sends
// rank/outdegree along every out-edge. Dangling mass is not
// redistributed (the Giraph default), so all four systems in the
// Figure 2 reproduction agree bit-for-bit on the same convention.
type PageRank struct {
	// Iterations is the number of rank-update rounds (paper runs 10).
	Iterations int
	// Damping is d (default 0.85).
	Damping float64
	// Epsilon, when positive, stops early once the global rank delta
	// (a SUM aggregator) falls below it.
	Epsilon float64
}

// NewPageRank returns a PageRank program with the paper's defaults.
func NewPageRank(iterations int) *PageRank {
	return &PageRank{Iterations: iterations, Damping: 0.85}
}

func (p *PageRank) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

// Aggregators implements core.HasAggregators: "delta" tracks global
// rank movement for epsilon termination.
func (p *PageRank) Aggregators() []core.AggregatorSpec {
	return []core.AggregatorSpec{{Name: "delta", Kind: core.AggregateSum}}
}

// Combiner implements core.HasCombiner: partial rank contributions sum.
func (p *PageRank) Combiner() core.Combiner { return core.Combiner{Kind: core.AggregateSum} }

// Compute implements core.VertexProgram.
func (p *PageRank) Compute(ctx *core.VertexContext, msgs []core.Message) error {
	n := float64(ctx.NumVertices())
	d := p.damping()
	var rank float64
	switch {
	case ctx.Superstep() == 0:
		rank = 1.0 / n
	default:
		sum := 0.0
		for _, m := range msgs {
			sum += parseFloat(m.Value, 0)
		}
		rank = (1-d)/n + d*sum
	}
	old := parseFloat(ctx.GetVertexValue(), 0)
	ctx.ModifyVertexValue(formatFloat(rank))
	if err := ctx.Aggregate("delta", math.Abs(rank-old)); err != nil {
		return err
	}

	if p.Epsilon > 0 && ctx.Superstep() > 0 {
		if delta, ok := ctx.AggregatedValue("delta"); ok && delta < p.Epsilon {
			ctx.VoteToHalt()
			return nil
		}
	}
	if ctx.Superstep() >= p.Iterations {
		ctx.VoteToHalt()
		return nil
	}
	if deg := ctx.OutDegree(); deg > 0 {
		ctx.SendMessageToAllNeighbors(formatFloat(rank / float64(deg)))
	}
	return nil
}

// RunPageRank resets the graph and runs PageRank, returning the final
// rank of every vertex.
func RunPageRank(ctx context.Context, g *core.Graph, iterations int, opts core.Options) (map[int64]float64, *core.RunStats, error) {
	if iterations <= 0 {
		return nil, nil, fmt.Errorf("algorithms: PageRank needs iterations > 0")
	}
	if err := g.ResetForRun(func(int64) string { return "" }); err != nil {
		return nil, nil, err
	}
	stats, err := core.Run(ctx, g, NewPageRank(iterations), opts)
	if err != nil {
		return nil, nil, err
	}
	ranks, err := g.FloatValues()
	if err != nil {
		return nil, nil, err
	}
	return ranks, stats, nil
}
