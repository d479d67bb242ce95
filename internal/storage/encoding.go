package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Column encodings. A Vertica-style column store keeps columns
// compressed at rest; this file implements the three classic encodings
// the paper's substrate relies on — run-length encoding for low-
// cardinality sorted columns, dictionary encoding for strings, and
// delta-varint encoding for monotone integer columns (vertex ids in a
// sorted projection). Encoded segments are byte slices with a one-byte
// tag so a table can persist heterogeneous segments.

// Encoding identifies a column encoding scheme.
type Encoding uint8

// Supported encodings.
const (
	EncPlain Encoding = iota
	EncRLE
	EncDict
	EncDelta
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "PLAIN"
	case EncRLE:
		return "RLE"
	case EncDict:
		return "DICT"
	case EncDelta:
		return "DELTA"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

var errCorrupt = errors.New("storage: corrupt encoded column")

// EncodeInt64RLE run-length encodes the values as (runLength, value)
// varint pairs. It shines on sorted low-cardinality data such as the
// `kind` discriminator column of the table union.
func EncodeInt64RLE(vals []int64) []byte {
	return appendInt64RLE(nil, vals)
}

func appendInt64RLE(buf []byte, vals []int64) []byte {
	buf = append(buf, byte(EncRLE))
	i := 0
	for i < len(vals) {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		buf = binary.AppendVarint(buf, vals[i])
		i = j
	}
	return buf
}

// maxRLEElements bounds how many values DecodeInt64RLE will expand
// when the caller does not know the expected row count. A single
// corrupt (runLength, value) pair can claim a run of 2^63 rows from a
// three-byte input; without a cap that is an allocation bomb. 2^24
// values (128 MiB of int64s) is far beyond any segment this engine
// writes while keeping the worst-case decode allocation modest.
const maxRLEElements = 1 << 24

// DecodeInt64RLE reverses EncodeInt64RLE. Output is capped at
// maxRLEElements; callers that know the expected row count (or expect
// columns above the cap) must use DecodeInt64RLEMax for a tight bound.
func DecodeInt64RLE(data []byte) ([]int64, error) {
	return DecodeInt64RLEMax(data, maxRLEElements)
}

// DecodeInt64RLEMax reverses EncodeInt64RLE, rejecting input that
// expands to more than max values as corrupt. A first pass validates
// the runs and sums their lengths against the budget, so a hostile
// length header cannot OOM the decoder and the output is allocated
// once, at its exact size.
func DecodeInt64RLEMax(data []byte, max int) ([]int64, error) {
	if len(data) == 0 || Encoding(data[0]) != EncRLE || max < 0 {
		return nil, errCorrupt
	}
	data = data[1:]
	total := 0
	for p := data; len(p) > 0; {
		run, n := binary.Uvarint(p)
		if n <= 0 || run == 0 || run > uint64(max-total) {
			return nil, errCorrupt
		}
		p = p[n:]
		if _, n = binary.Varint(p); n <= 0 {
			return nil, errCorrupt
		}
		p = p[n:]
		total += int(run)
	}
	out := make([]int64, total)
	for i := 0; len(data) > 0; {
		run, n := binary.Uvarint(data)
		data = data[n:]
		v, n := binary.Varint(data)
		data = data[n:]
		end := i + int(run)
		for ; i < end; i++ {
			out[i] = v
		}
	}
	return out, nil
}

// EncodeInt64Delta delta-encodes the values as varints: first value
// absolute, then differences. Sorted vertex-id columns compress to a
// byte or two per row.
func EncodeInt64Delta(vals []int64) []byte {
	return appendInt64Delta(nil, vals)
}

func appendInt64Delta(buf []byte, vals []int64) []byte {
	buf = append(buf, byte(EncDelta))
	prev := int64(0)
	for _, v := range vals {
		buf = binary.AppendVarint(buf, v-prev)
		prev = v
	}
	return buf
}

// DecodeInt64Delta reverses EncodeInt64Delta.
func DecodeInt64Delta(data []byte) ([]int64, error) {
	if len(data) == 0 || Encoding(data[0]) != EncDelta {
		return nil, errCorrupt
	}
	data = data[1:]
	// Each varint ends in exactly one byte below 0x80: counting them
	// sizes the output once, bounded by the input.
	count := 0
	for _, c := range data {
		if c < 0x80 {
			count++
		}
	}
	out := make([]int64, 0, count)
	prev := int64(0)
	for len(data) > 0 {
		d, n := binary.Varint(data)
		if n <= 0 {
			return nil, errCorrupt
		}
		data = data[n:]
		prev += d
		out = append(out, prev)
	}
	return out, nil
}

// EncodeStringDict dictionary-encodes the strings: a sorted-by-first-use
// dictionary followed by varint codes. Ideal for the edge `type`
// metadata column ("family" / "friend" / "classmate").
func EncodeStringDict(vals []string) []byte {
	return appendStringDict(nil, vals)
}

func appendStringDict(buf []byte, vals []string) []byte {
	dict := make(map[string]uint64)
	var order []string
	codes := make([]uint64, len(vals))
	for i, s := range vals {
		c, ok := dict[s]
		if !ok {
			c = uint64(len(order))
			dict[s] = c
			order = append(order, s)
		}
		codes[i] = c
	}
	buf = append(buf, byte(EncDict))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, s := range order {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(codes)))
	for _, c := range codes {
		buf = binary.AppendUvarint(buf, c)
	}
	return buf
}

// DecodeStringDict reverses EncodeStringDict.
func DecodeStringDict(data []byte) ([]string, error) {
	if len(data) == 0 || Encoding(data[0]) != EncDict {
		return nil, errCorrupt
	}
	data = data[1:]
	dn, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errCorrupt
	}
	data = data[n:]
	// Every dictionary entry consumes at least one byte (its length
	// varint), so a count exceeding the remaining input is corrupt —
	// validate before allocating from the untrusted header.
	if dn > uint64(len(data)) {
		return nil, errCorrupt
	}
	dict := make([]string, dn)
	for i := range dict {
		sl, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < sl {
			return nil, errCorrupt
		}
		data = data[n:]
		dict[i] = string(data[:sl])
		data = data[sl:]
	}
	cn, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, errCorrupt
	}
	data = data[n:]
	// Each code is at least one byte; cap the allocation by what the
	// remaining input could possibly hold.
	if cn > uint64(len(data)) {
		return nil, errCorrupt
	}
	out := make([]string, cn)
	for i := range out {
		c, n := binary.Uvarint(data)
		if n <= 0 || c >= dn {
			return nil, errCorrupt
		}
		data = data[n:]
		out[i] = dict[c]
	}
	if len(data) != 0 {
		return nil, errCorrupt
	}
	return out, nil
}

// EncodeFloat64Plain stores float64 values as fixed-width little-endian
// words; floats rarely compress and Vertica stores them plain too.
func EncodeFloat64Plain(vals []float64) []byte {
	return appendFloat64Plain(make([]byte, 0, 1+8*len(vals)), vals)
}

func appendFloat64Plain(buf []byte, vals []float64) []byte {
	buf = append(buf, byte(EncPlain))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeFloat64Plain reverses EncodeFloat64Plain.
func DecodeFloat64Plain(data []byte) ([]float64, error) {
	if len(data) == 0 || Encoding(data[0]) != EncPlain || (len(data)-1)%8 != 0 {
		return nil, errCorrupt
	}
	data = data[1:]
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out, nil
}

// CompressedSize reports the encoded size of an int64 column under the
// best of RLE/delta (RLE on a tie). It sizes both encodings in one pass
// without encoding or allocating.
func CompressedSize(vals []int64) (enc Encoding, size int) {
	r, d := 1, 1 // the encoding tag
	prev, runStart := int64(0), 0
	for i, v := range vals {
		d += varintLen(v - prev)
		prev = v
		if i == 0 || v != vals[i-1] {
			// A run starts here: its value, plus its length once known.
			r += varintLen(v)
			if i > 0 {
				r += uvarintLen(uint64(i - runStart))
			}
			runStart = i
		}
	}
	if len(vals) > 0 {
		r += uvarintLen(uint64(len(vals) - runStart))
	}
	if r <= d {
		return EncRLE, r
	}
	return EncDelta, d
}

// EncodeInt64 encodes an int64 column under whichever of RLE and delta
// is smaller (RLE on a tie): one sizing pass, then one encode into an
// exactly sized buffer. Column frames encode their INTEGER columns
// through it.
func EncodeInt64(vals []int64) []byte {
	return appendInt64(nil, vals)
}

func appendInt64(buf []byte, vals []int64) []byte {
	enc, size := CompressedSize(vals)
	buf = slices.Grow(buf, size)
	if enc == EncRLE {
		return appendInt64RLE(buf, vals)
	}
	return appendInt64Delta(buf, vals)
}

// appendBoolRLE appends bools as the 0/1 RLE segment EncodeInt64RLE
// writes for the same values as integers.
func appendBoolRLE(buf []byte, vals []bool) []byte {
	buf = append(buf, byte(EncRLE))
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		var v int64
		if vals[i] {
			v = 1
		}
		buf = binary.AppendVarint(buf, v)
		i = j
	}
	return buf
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int {
	return 1 + (bits.Len64(x|1)-1)/7
}

// varintLen is the length of binary.AppendVarint's (zig-zag) encoding of v.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}
