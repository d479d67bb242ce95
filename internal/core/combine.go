package core

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// The message path after the superstep barrier. Workers have routed
// every outgoing message to its destination partition (the input's own
// hash partitioning, on dst); each destination partition is sorted and
// combined on the worker budget, and the sorted runs are merged into
// the message table's row order.

// compareMessages orders messages by (dst, src, value): the message
// table's row order and, per destination, the combiner's fold order.
func compareMessages(a, b Message) int {
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return strings.Compare(a.Value, b.Value)
}

// foldMessages concatenates each destination partition's buckets
// (routed[partition][worker]), sorts them with compareMessages and
// folds them with comb, if any: one sorted run per partition.
func foldMessages(budget *sched.Budget, workers int, routed [][][]Message, comb *Combiner, step int) ([][]Message, error) {
	runs := make([][]Message, len(routed))
	errs := make([]error, len(routed))
	sched.ForEach(budget, len(routed), workers, func(p int) {
		runs[p] = slices.Concat(routed[p]...)
		slices.SortFunc(runs[p], compareMessages)
		if comb != nil {
			runs[p], errs[p] = comb.fold(runs[p], step)
		}
	})
	return runs, errors.Join(errs...)
}

// fold combines, in place, each destination's run of msgs (sorted with
// compareMessages): every value is parsed once, a combined one
// formatted once.
func (c Combiner) fold(msgs []Message, step int) ([]Message, error) {
	out := msgs[:0] // each run msgs[i:j] becomes one message, so len(out) <= i
	for i := 0; i < len(msgs); {
		j := i + 1
		for j < len(msgs) && msgs[j].Dst == msgs[i].Dst {
			j++
		}
		var m Message
		var err error
		if c.Int {
			m, err = combineRun(c.Kind, msgs[i:j], parseInt, formatInt)
		} else {
			m, err = combineRun(c.Kind, msgs[i:j], parseFloat, formatFloat)
		}
		if err != nil {
			return nil, fmt.Errorf("core: vertex %d superstep %d: combine %s: %w", msgs[i].Dst, step, c, err)
		}
		out = append(out, m)
		i = j
	}
	return out, nil
}

// combineRun folds one destination's messages. A lone message is only
// checked and comes back unchanged; several merge into one from src -1.
func combineRun[T int64 | float64](kind AggregatorKind, run []Message,
	parse func(string) (T, error), format func(T) string) (Message, error) {
	acc, err := parse(run[0].Value)
	for k := 1; k < len(run) && err == nil; k++ {
		var v T
		v, err = parse(run[k].Value)
		acc = foldAggregate(kind, acc, v)
	}
	if err != nil || len(run) == 1 {
		return run[0], err
	}
	return Message{Src: -1, Dst: run[0].Dst, Value: format(acc)}, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
func formatFloat(f float64) string         { return strconv.FormatFloat(f, 'g', -1, 64) }
func parseInt(s string) (int64, error)     { return strconv.ParseInt(s, 10, 64) }
func formatInt(i int64) string             { return strconv.FormatInt(i, 10) }

// runHeap holds non-empty sorted runs, least head first.
type runHeap [][]Message

func (h runHeap) Len() int           { return len(h) }
func (h runHeap) Less(i, j int) bool { return compareMessages(h[i][0], h[j][0]) < 0 }
func (h runHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)        { *h = append(*h, x.([]Message)) }
func (h *runHeap) Pop() any          { r := (*h)[len(*h)-1]; *h = (*h)[:len(*h)-1]; return r }

// mergeRuns merges runs, each sorted with compareMessages, into the
// message table's src, dst and value columns, in that order.
func mergeRuns(runs [][]Message) (src, dst []int64, val []string) {
	var h runHeap
	n := 0
	for _, r := range runs {
		if n += len(r); len(r) > 0 {
			h = append(h, r)
		}
	}
	heap.Init(&h)
	src, dst, val = make([]int64, 0, n), make([]int64, 0, n), make([]string, 0, n)
	for len(h) > 0 {
		m := h[0][0]
		src, dst, val = append(src, m.Src), append(dst, m.Dst), append(val, m.Value)
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return src, dst, val
}
