package storage

// Deterministic hashing for partitioning and hash joins. We use FNV-1a
// so partition assignment is stable across runs and platforms — the
// vertex-batching tests depend on that determinism.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashInt64 hashes an int64 with FNV-1a over its little-endian bytes.
func HashInt64(v int64) uint64 {
	h := uint64(fnvOffset64)
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime64
		u >>= 8
	}
	return h
}

// HashString hashes a string with FNV-1a.
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// HashValue hashes any Value; NULLs hash to a fixed sentinel.
func HashValue(v Value) uint64 {
	if v.Null {
		return 0x9e3779b97f4a7c15
	}
	switch v.Type {
	case TypeInt64, TypeBool:
		return HashInt64(v.I)
	case TypeFloat64:
		return hashFloat64(v.F)
	case TypeString:
		return HashString(v.S)
	}
	return 0
}

// hashFloat64 is HashValue of a non-null DOUBLE.
func hashFloat64(f float64) uint64 {
	if f == float64(int64(f)) {
		// Hash integral floats like ints so INTEGER and DOUBLE
		// join keys agree.
		return HashInt64(int64(f))
	}
	return HashInt64(int64(f*1e9)) ^ 0xabcd
}

// foldHash folds one key hash into a row hash, FNV-1a over its bytes.
func foldHash(h, hv uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= hv & 0xff
		h *= fnvPrime64
		hv >>= 8
	}
	return h
}

// HashRow combines the hashes of several key values.
func HashRow(vals []Value) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h = foldHash(h, HashValue(v))
	}
	return h
}

// HashKeys hashes the key columns of rows [lo, hi) of b column by
// column: hashes[i-lo] equals HashRow over row i's boxed key values, so
// a row hashed here routes exactly like one hashed by HashRow. nulls[i-lo]
// reports whether any key of row i is NULL; such a row's hash is
// meaningless (a NULL key matches nothing). Both slices need hi-lo
// entries.
func HashKeys(b *Batch, keys []int, lo, hi int, hashes []uint64, nulls []bool) {
	hashes, nulls = hashes[:hi-lo], nulls[:hi-lo]
	for i := range hashes {
		hashes[i] = fnvOffset64
		nulls[i] = false
	}
	for _, k := range keys {
		c := b.Cols[k]
		switch col := c.(type) {
		case *Int64Column:
			for i, v := range col.vals[lo:hi] {
				hashes[i] = foldHash(hashes[i], HashInt64(v))
			}
		case *Float64Column:
			for i, v := range col.vals[lo:hi] {
				hashes[i] = foldHash(hashes[i], hashFloat64(v))
			}
		case *StringColumn:
			for i, v := range col.vals[lo:hi] {
				hashes[i] = foldHash(hashes[i], HashString(v))
			}
		case *BoolColumn:
			for i, v := range col.vals[lo:hi] {
				var x int64
				if v {
					x = 1
				}
				hashes[i] = foldHash(hashes[i], HashInt64(x))
			}
		default:
			for i := range hashes {
				hashes[i] = foldHash(hashes[i], HashValue(c.Value(lo+i)))
			}
		}
		if nb := NullsOf(c); nb.Any() {
			for i := range nulls {
				if nb.Get(lo + i) {
					nulls[i] = true
				}
			}
		}
	}
}

// PartitionInt64 assigns each value to one of n partitions by hash and
// returns, per partition, the row indexes assigned to it. This is the
// primitive behind the paper's Vertex Batching optimization: the table
// union is hash partitioned on the vertex id.
func PartitionInt64(vals []int64, n int) [][]int {
	out := make([][]int, n)
	if n == 1 {
		idx := make([]int, len(vals))
		for i := range idx {
			idx[i] = i
		}
		out[0] = idx
		return out
	}
	for i, v := range vals {
		p := int(HashInt64(v) % uint64(n))
		out[p] = append(out[p], i)
	}
	return out
}
