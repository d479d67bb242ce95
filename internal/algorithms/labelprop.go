package algorithms

import (
	"context"
	"sort"
	"strconv"

	"repro/internal/core"
)

// LabelPropagation detects communities: every vertex starts in its own
// community and repeatedly adopts the most frequent label among its
// neighbors (ties break to the smallest label, making runs
// deterministic). It is one of the "other message passing algorithms"
// the paper's introduction claims Vertexica expresses naturally, with
// heavier per-vertex compute than PageRank.
type LabelPropagation struct {
	// MaxRounds bounds the number of adoption rounds (default 20;
	// label propagation is not guaranteed to converge).
	MaxRounds int
}

func (l *LabelPropagation) rounds() int {
	if l.MaxRounds <= 0 {
		return 20
	}
	return l.MaxRounds
}

// Compute implements core.VertexProgram.
func (l *LabelPropagation) Compute(ctx *core.VertexContext, msgs []core.Message) error {
	if ctx.Superstep() == 0 {
		label := strconv.FormatInt(ctx.Id(), 10)
		ctx.ModifyVertexValue(label)
		ctx.SendMessageToAllNeighbors(label)
		return nil
	}
	cur := ctx.GetVertexValue()
	next := mostFrequentLabel(msgs, cur)
	if next != cur {
		ctx.ModifyVertexValue(next)
	}
	if ctx.Superstep() >= l.rounds() {
		ctx.VoteToHalt()
		return nil
	}
	// Keep propagating while anything can still change; halting here
	// and waking on messages would lose the per-round framing.
	ctx.SendMessageToAllNeighbors(next)
	return nil
}

// mostFrequentLabel picks the modal label among the messages; ties go
// to the numerically smallest label, and an empty inbox keeps cur.
func mostFrequentLabel(msgs []core.Message, cur string) string {
	if len(msgs) == 0 {
		return cur
	}
	counts := make(map[string]int, len(msgs))
	for _, m := range msgs {
		counts[m.Value]++
	}
	// Deterministic scan order.
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		a, _ := strconv.ParseInt(labels[i], 10, 64)
		b, _ := strconv.ParseInt(labels[j], 10, 64)
		return a < b
	})
	best, bestCount := cur, 0
	for _, l := range labels {
		if counts[l] > bestCount {
			best, bestCount = l, counts[l]
		}
	}
	return best
}

// RunLabelPropagation resets the graph and returns each vertex's final
// community label.
func RunLabelPropagation(ctx context.Context, g *core.Graph, maxRounds int, opts core.Options) (map[int64]int64, *core.RunStats, error) {
	if err := g.ResetForRun(func(int64) string { return "" }); err != nil {
		return nil, nil, err
	}
	stats, err := core.Run(ctx, g, &LabelPropagation{MaxRounds: maxRounds}, opts)
	if err != nil {
		return nil, nil, err
	}
	labels, err := labelValues(g)
	return labels, stats, err
}
