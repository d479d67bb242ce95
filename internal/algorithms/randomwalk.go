package algorithms

import (
	"context"

	"repro/internal/core"
)

// RandomWalkRestart computes random-walk-with-restart scores
// (personalized PageRank) from a source vertex: at every step the
// walker follows out-edges with probability 1-c and teleports back to
// the source with probability c. Scores converge to the stationary
// visiting distribution. The paper lists RWR among the message-passing
// algorithms Vertexica expresses naturally (§1).
type RandomWalkRestart struct {
	Source     int64
	Iterations int
	// Restart is c, the teleport probability (default 0.15).
	Restart float64
}

func (r *RandomWalkRestart) restart() float64 {
	if r.Restart == 0 {
		return 0.15
	}
	return r.Restart
}

// Combiner implements core.HasCombiner: probability mass sums.
func (r *RandomWalkRestart) Combiner() core.Combiner { return core.Combiner{Kind: core.AggregateSum} }

// Compute implements core.VertexProgram.
func (r *RandomWalkRestart) Compute(ctx *core.VertexContext, msgs []core.Message) error {
	c := r.restart()
	var score float64
	if ctx.Superstep() == 0 {
		if ctx.Id() == r.Source {
			score = 1.0
		}
	} else {
		sum := 0.0
		for _, m := range msgs {
			sum += parseFloat(m.Value, 0)
		}
		restartMass := 0.0
		if ctx.Id() == r.Source {
			restartMass = c
		}
		score = (1-c)*sum + restartMass
	}
	ctx.ModifyVertexValue(formatFloat(score))
	if ctx.Superstep() >= r.Iterations {
		ctx.VoteToHalt()
		return nil
	}
	if deg := ctx.OutDegree(); deg > 0 && score > 0 {
		ctx.SendMessageToAllNeighbors(formatFloat(score / float64(deg)))
	}
	return nil
}

// RunRandomWalkRestart resets the graph and returns RWR scores.
func RunRandomWalkRestart(ctx context.Context, g *core.Graph, source int64, iterations int, opts core.Options) (map[int64]float64, *core.RunStats, error) {
	if err := g.ResetForRun(func(int64) string { return "" }); err != nil {
		return nil, nil, err
	}
	prog := &RandomWalkRestart{Source: source, Iterations: iterations}
	stats, err := core.Run(ctx, g, prog, opts)
	if err != nil {
		return nil, nil, err
	}
	scores, err := g.FloatValues()
	if err != nil {
		return nil, nil, err
	}
	return scores, stats, nil
}

// DegreeCount is a one-superstep utility program that records each
// vertex's in-degree (via messages) and out-degree in its value as
// "in,out". It doubles as the smallest possible example of the API.
type DegreeCount struct{}

// Compute implements core.VertexProgram.
func (DegreeCount) Compute(ctx *core.VertexContext, msgs []core.Message) error {
	if ctx.Superstep() == 0 {
		ctx.SendMessageToAllNeighbors("1")
		return nil
	}
	in := len(msgs)
	ctx.ModifyVertexValue(formatFloat(float64(in)) + "," + formatFloat(float64(ctx.OutDegree())))
	ctx.VoteToHalt()
	return nil
}
