package storage

// Sorted-run merging: exec.Sort merges its sorted morsels pairwise, and
// the spill merge cuts its frames, with a linear merge instead of a
// full re-sort.

// MergeSortedBatches merges two batches, each already sorted on the
// given keys, into one batch sorted on the same keys (stable: on equal
// keys rows of a precede rows of b). The inputs are not modified; the
// result shares no column storage with them. Either input may be nil
// or empty.
func MergeSortedBatches(a, b *Batch, keys []SortKey) *Batch {
	na, nb := a.Len(), b.Len()
	if na == 0 {
		if b == nil {
			return a
		}
		return b.Gather(identity(nb))
	}
	if nb == 0 {
		return a.Gather(identity(na))
	}

	// order[k] < na selects row k of a; otherwise row order[k]-na of b.
	order := make([]int, 0, na+nb)
	rows := rowComparator(a, b, keys)
	i, j := 0, 0
	for i < na && j < nb {
		if rows(i, j) <= 0 {
			order = append(order, i)
			i++
		} else {
			order = append(order, na+j)
			j++
		}
	}
	for ; i < na; i++ {
		order = append(order, i)
	}
	for ; j < nb; j++ {
		order = append(order, na+j)
	}

	out := &Batch{Schema: a.Schema, Cols: make([]Column, len(a.Cols))}
	for c := range a.Cols {
		out.Cols[c] = gatherTwo(a.Cols[c], b.Cols[c], order, na)
	}
	return out
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// gatherTwo builds one column from two source columns of the same type
// under a merged order: index < na reads a, index >= na reads b at
// index-na. Typed fast paths avoid per-value boxing on the merge path.
func gatherTwo(a, b Column, order []int, na int) Column {
	switch ac := a.(type) {
	case *Int64Column:
		bc := b.(*Int64Column)
		out := &Int64Column{vals: make([]int64, len(order))}
		for k, o := range order {
			if o < na {
				out.vals[k] = ac.vals[o]
			} else {
				out.vals[k] = bc.vals[o-na]
			}
		}
		mergeNulls(&out.nulls, ac.nulls, bc.nulls, order, na)
		return out
	case *Float64Column:
		bc := b.(*Float64Column)
		out := &Float64Column{vals: make([]float64, len(order))}
		for k, o := range order {
			if o < na {
				out.vals[k] = ac.vals[o]
			} else {
				out.vals[k] = bc.vals[o-na]
			}
		}
		mergeNulls(&out.nulls, ac.nulls, bc.nulls, order, na)
		return out
	case *StringColumn:
		bc := b.(*StringColumn)
		out := &StringColumn{vals: make([]string, len(order))}
		for k, o := range order {
			if o < na {
				out.vals[k] = ac.vals[o]
			} else {
				out.vals[k] = bc.vals[o-na]
			}
		}
		mergeNulls(&out.nulls, ac.nulls, bc.nulls, order, na)
		return out
	case *BoolColumn:
		bc := b.(*BoolColumn)
		out := &BoolColumn{vals: make([]bool, len(order))}
		for k, o := range order {
			if o < na {
				out.vals[k] = ac.vals[o]
			} else {
				out.vals[k] = bc.vals[o-na]
			}
		}
		mergeNulls(&out.nulls, ac.nulls, bc.nulls, order, na)
		return out
	default:
		// Unknown column type: fall back to boxed appends.
		out := NewColumn(a.Type(), len(order))
		for _, o := range order {
			if o < na {
				_ = out.Append(a.Value(o))
			} else {
				_ = out.Append(b.Value(o - na))
			}
		}
		return out
	}
}

// mergeNulls builds the merged null bitmap when either source has one.
func mergeNulls(dst **Bitmap, an, bn *Bitmap, order []int, na int) {
	if (an == nil || !an.Any()) && (bn == nil || !bn.Any()) {
		return
	}
	out := NewBitmap(len(order))
	for k, o := range order {
		if o < na {
			if an.Get(o) {
				out.Set(k)
			}
		} else if bn.Get(o - na) {
			out.Set(k)
		}
	}
	*dst = out
}
