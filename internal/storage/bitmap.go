package storage

import "math/bits"

// Bitmap is a growable bitset used for null tracking and row selection.
// The zero value is an empty bitmap ready for use.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a bitmap sized for n bits, all clear.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the logical number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Resize grows (or shrinks) the bitmap to n bits. New bits are clear.
func (b *Bitmap) Resize(n int) {
	need := (n + 63) / 64
	for len(b.words) < need {
		b.words = append(b.words, 0)
	}
	if need < len(b.words) {
		b.words = b.words[:need]
	}
	if n < b.n {
		// Clear any bits beyond the new length in the last word.
		if rem := n % 64; rem != 0 && len(b.words) > 0 {
			b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
		}
	}
	b.n = n
}

// Set sets bit i, growing the bitmap if needed.
func (b *Bitmap) Set(i int) {
	if i >= b.n {
		b.Resize(i + 1)
	}
	b.words[i/64] |= 1 << uint(i%64)
}

// Clear clears bit i. Clearing past the end (or on a nil bitmap, which
// has no set bits) is a no-op.
func (b *Bitmap) Clear(i int) {
	if b == nil || i >= b.n {
		return
	}
	b.words[i/64] &^= 1 << uint(i%64)
}

// Get reports whether bit i is set. Out-of-range bits are clear.
func (b *Bitmap) Get(i int) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<uint(i%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	if b == nil {
		return 0
	}
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitmap) Any() bool {
	if b == nil {
		return false
	}
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	if b == nil {
		return nil
	}
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{words: w, n: b.n}
}

// Append appends a bit to the end of the bitmap.
func (b *Bitmap) Append(set bool) {
	i := b.n
	b.Resize(i + 1)
	if set {
		b.words[i/64] |= 1 << uint(i%64)
	}
}

// Words exposes the backing words for serialization.
func (b *Bitmap) Words() []uint64 {
	if b == nil {
		return nil
	}
	return b.words
}

// Slice returns a new bitmap holding bits [from, to).
func (b *Bitmap) Slice(from, to int) *Bitmap {
	out := NewBitmap(to - from)
	for i := from; i < to; i++ {
		if b.Get(i) {
			out.Set(i - from)
		}
	}
	return out
}
