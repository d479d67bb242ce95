package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRLERoundTrip(t *testing.T) {
	in := []int64{5, 5, 5, 1, 1, 9, 9, 9, 9, -3}
	out, err := DecodeInt64RLE(EncodeInt64RLE(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], in[i])
		}
	}
}

func TestRLERoundTripProperty(t *testing.T) {
	f := func(in []int64) bool {
		out, err := DecodeInt64RLE(EncodeInt64RLE(in))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return len(in) == 0 && len(out) == 0
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaRoundTripProperty(t *testing.T) {
	f := func(in []int64) bool {
		out, err := DecodeInt64Delta(EncodeInt64Delta(in))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return len(in) == 0 && len(out) == 0
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDictRoundTripProperty(t *testing.T) {
	f := func(in []string) bool {
		out, err := DecodeStringDict(EncodeStringDict(in))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return len(in) == 0 && len(out) == 0
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatPlainRoundTrip(t *testing.T) {
	in := []float64{0, 1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)}
	out, err := DecodeFloat64Plain(EncodeFloat64Plain(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], in[i])
		}
	}
}

func TestRLECompressesRuns(t *testing.T) {
	run := make([]int64, 10000)
	enc := EncodeInt64RLE(run)
	if len(enc) > 16 {
		t.Errorf("RLE of constant column is %d bytes, want tiny", len(enc))
	}
}

func TestDeltaCompressesSorted(t *testing.T) {
	sorted := make([]int64, 10000)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	enc := EncodeInt64Delta(sorted)
	if len(enc) > len(sorted)*2 {
		t.Errorf("delta of sorted ids is %d bytes, want <= ~1/row", len(enc))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeInt64RLE([]byte{0xff, 0x01}); err == nil {
		t.Error("RLE decode of wrong tag should fail")
	}
	if _, err := DecodeStringDict([]byte{byte(EncDict), 0x05}); err == nil {
		t.Error("dict decode of truncated data should fail")
	}
	if _, err := DecodeFloat64Plain([]byte{byte(EncPlain), 1, 2, 3}); err == nil {
		t.Error("plain float decode of misaligned data should fail")
	}
	if _, err := DecodeInt64Delta(nil); err == nil {
		t.Error("delta decode of empty data should fail")
	}
}

func TestCompressedSizePicksBest(t *testing.T) {
	constant := make([]int64, 1000)
	if enc, _ := CompressedSize(constant); enc != EncRLE {
		t.Errorf("constant column should pick RLE, got %v", enc)
	}
	seq := make([]int64, 1000)
	for i := range seq {
		seq[i] = int64(i) * 3
	}
	if enc, _ := CompressedSize(seq); enc != EncDelta {
		t.Errorf("sequential column should pick DELTA, got %v", enc)
	}
}

// twoEncodeChoice is the reference INTEGER column encoding: encode under
// both RLE and delta with per-value varint writes, keep the shorter, RLE
// on a tie. EncodeInt64 must produce exactly these bytes, so spill,
// wire and snapshot bytes do not change.
func twoEncodeChoice(vals []int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	rle := []byte{byte(EncRLE)}
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		rle = append(rle, tmp[:binary.PutUvarint(tmp[:], uint64(j-i))]...)
		rle = append(rle, tmp[:binary.PutVarint(tmp[:], vals[i])]...)
		i = j
	}
	delta := []byte{byte(EncDelta)}
	prev := int64(0)
	for _, v := range vals {
		delta = append(delta, tmp[:binary.PutVarint(tmp[:], v-prev)]...)
		prev = v
	}
	if len(rle) <= len(delta) {
		return rle
	}
	return delta
}

// checkEncodeInt64 compares EncodeInt64 and CompressedSize with the
// two-encode reference.
func checkEncodeInt64(t *testing.T, what string, vals []int64) {
	t.Helper()
	want := twoEncodeChoice(vals)
	if got := EncodeInt64(vals); !bytes.Equal(got, want) {
		t.Fatalf("%s: EncodeInt64 = %x, want %x", what, got, want)
	}
	if enc, size := CompressedSize(vals); enc != Encoding(want[0]) || size != len(want) {
		t.Fatalf("%s: CompressedSize = %v/%d, want %v/%d", what, enc, size, Encoding(want[0]), len(want))
	}
}

func TestEncodeInt64MatchesTwoEncodeChoice(t *testing.T) {
	seq := make([]int64, 1000)
	for i := range seq {
		seq[i] = int64(i) * 3
	}
	checkEncodeInt64(t, "empty", nil)
	checkEncodeInt64(t, "constant", make([]int64, 1000))
	checkEncodeInt64(t, "sorted", seq)
	checkEncodeInt64(t, "single", []int64{-5})
	checkEncodeInt64(t, "extremes", []int64{math.MinInt64, math.MaxInt64, math.MinInt64, 0, math.MaxInt64, math.MaxInt64})
	checkEncodeInt64(t, "tie", []int64{7, 7}) // 3 bytes either way: RLE
	rng := rand.New(rand.NewSource(5))
	for seed := 0; seed < 500; seed++ {
		vals := make([]int64, rng.Intn(300))
		run := 1 + rng.Intn(8)
		for i := range vals {
			switch {
			case i > 0 && rng.Intn(run) != 0:
				vals[i] = vals[i-1] // runs
			case seed%3 == 0:
				vals[i] = -rng.Int63n(1 << uint(rng.Intn(63))) // negative
			case seed%3 == 1 && i > 0:
				vals[i] = vals[i-1] + rng.Int63n(100) // sorted
			default:
				vals[i] = int64(rng.Uint64()) // random, wrapping deltas
			}
		}
		checkEncodeInt64(t, fmt.Sprintf("seed %d", seed), vals)
	}
}
