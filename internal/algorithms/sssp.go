package algorithms

import (
	"context"

	"repro/internal/core"
)

// SSSP is single-source shortest paths as a vertex program: the source
// starts at distance 0 and relaxations propagate as messages carrying
// candidate distances. Every vertex votes to halt each superstep and is
// reawakened only by a shorter candidate — the canonical Pregel SSSP.
type SSSP struct {
	Source int64
	// UnitWeights treats every edge as weight 1 (hop counts); otherwise
	// the edge's weight attribute is used.
	UnitWeights bool
}

// Combiner implements core.HasCombiner: candidate distances combine by
// minimum.
func (s *SSSP) Combiner() core.Combiner { return core.Combiner{Kind: core.AggregateMin} }

// Compute implements core.VertexProgram.
func (s *SSSP) Compute(ctx *core.VertexContext, msgs []core.Message) error {
	cur := parseFloat(ctx.GetVertexValue(), inf)
	if ctx.Superstep() == 0 {
		if ctx.Id() == s.Source {
			cur = 0
			ctx.ModifyVertexValue(formatFloat(cur))
			s.relax(ctx, cur)
		} else {
			ctx.ModifyVertexValue(formatFloat(inf))
		}
		ctx.VoteToHalt()
		return nil
	}
	best := cur
	for _, m := range msgs {
		if d := parseFloat(m.Value, inf); d < best {
			best = d
		}
	}
	if best < cur {
		ctx.ModifyVertexValue(formatFloat(best))
		s.relax(ctx, best)
	}
	ctx.VoteToHalt()
	return nil
}

func (s *SSSP) relax(ctx *core.VertexContext, dist float64) {
	for _, e := range ctx.GetOutEdges() {
		w := e.Weight
		if s.UnitWeights || w <= 0 {
			w = 1
		}
		ctx.SendMessage(e.Dst, formatFloat(dist+w))
	}
}

// RunSSSP resets the graph and computes shortest-path distances from
// the source; unreachable vertices map to +Inf.
func RunSSSP(ctx context.Context, g *core.Graph, source int64, unitWeights bool, opts core.Options) (map[int64]float64, *core.RunStats, error) {
	if err := g.ResetForRun(func(int64) string { return "" }); err != nil {
		return nil, nil, err
	}
	stats, err := core.Run(ctx, g, &SSSP{Source: source, UnitWeights: unitWeights}, opts)
	if err != nil {
		return nil, nil, err
	}
	dists, err := g.FloatValues()
	if err != nil {
		return nil, nil, err
	}
	return dists, stats, nil
}
