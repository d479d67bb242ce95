package storage

import (
	"encoding/binary"
	"fmt"
)

// The column frame: the one serialized form of a batch. Wire result
// batches, spill-run frames and snapshot table bodies are all this
// frame, so the compressed columnar layout the column store keeps at
// rest is also what it spills and what it ships.
//
//	uvarint rows
//	per column:
//	  uvarint null-word count, then that many little-endian uint64
//	    words of the null bitmap (0 words = no nulls)
//	  uvarint payload length, then the payload
//
// INTEGER payloads take the better of RLE and delta (the payload's tag
// byte says which), DOUBLE is plain fixed-width, VARCHAR is
// dictionary-coded, and BOOLEAN is 0/1 RLE. The schema travels
// separately (wire RowsHeader, snapshot table header, spill run
// handle).

// AppendBatch appends b to dst as one column frame. It fails only for
// a column that is not one of the four concrete column types.
func AppendBatch(dst []byte, b *Batch) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(b.Len()))
	for _, c := range b.Cols {
		words := NullsOf(c).Words()
		dst = binary.AppendUvarint(dst, uint64(len(words)))
		for _, w := range words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		switch col := c.(type) {
		case *Int64Column:
			dst = appendSegment(dst, col.vals, appendInt64)
		case *Float64Column:
			dst = appendSegment(dst, col.vals, appendFloat64Plain)
		case *StringColumn:
			dst = appendSegment(dst, col.vals, appendStringDict)
		case *BoolColumn:
			dst = appendSegment(dst, col.vals, appendBoolRLE)
		default:
			return dst, fmt.Errorf("storage: cannot encode column type %T", c)
		}
	}
	return dst, nil
}

// appendSegment appends the payload enc writes for vals behind its
// uvarint length. The length is guessed to fit one byte; a longer
// payload is shifted right once to make room.
func appendSegment[T any](dst []byte, vals []T, enc func([]byte, []T) []byte) []byte {
	at := len(dst)
	dst = enc(append(dst, 0), vals)
	size := len(dst) - at - 1
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(size))
	if k > 1 {
		dst = append(dst, hdr[1:k]...)
		copy(dst[at+k:], dst[at+1:at+1+size])
	}
	copy(dst[at:], hdr[:k])
	return dst
}

// DecodeBatch reads one column frame against the schema it was written
// with and returns the bytes that follow it. A frame claiming more than
// maxRows rows is corrupt, every column must decode to exactly the
// frame's row count, and every length is checked against the bytes
// that remain before anything is allocated — so truncated or hostile
// input fails with a corrupt-column error, never a panic or an
// allocation the input cannot back.
func DecodeBatch(data []byte, schema Schema, maxRows int) (*Batch, []byte, error) {
	rows, k := binary.Uvarint(data)
	if k <= 0 || rows > uint64(maxRows) {
		return nil, nil, errCorrupt
	}
	data = data[k:]
	n := int(rows)
	out := &Batch{Schema: schema, Cols: make([]Column, schema.Len())}
	for i, def := range schema.Cols {
		nw, k := binary.Uvarint(data)
		// Divide instead of multiplying: nw*8 can wrap for a hostile
		// word count.
		if k <= 0 || nw > uint64(len(data)-k)/8 {
			return nil, nil, errCorrupt
		}
		words := data[k : k+8*int(nw)]
		data = data[k+8*int(nw):]
		size, k := binary.Uvarint(data)
		if k <= 0 || size > uint64(len(data)-k) {
			return nil, nil, errCorrupt
		}
		payload := data[k : k+int(size)]
		data = data[k+int(size):]
		col, err := decodeColumn(payload, def.Type, n)
		if err != nil {
			return nil, nil, fmt.Errorf("column %s: %w", def.Name, err)
		}
		if nw > 0 {
			SetNulls(col, nullBitmap(words, n))
		}
		out.Cols[i] = col
	}
	return out, data, nil
}

// decodeColumn decodes one payload into a column of exactly n values.
func decodeColumn(payload []byte, t Type, n int) (Column, error) {
	switch t {
	case TypeInt64:
		var vals []int64
		var err error
		if len(payload) > 0 && Encoding(payload[0]) == EncDelta {
			vals, err = DecodeInt64Delta(payload)
		} else {
			vals, err = DecodeInt64RLEMax(payload, n)
		}
		if err != nil || len(vals) != n {
			return nil, errCorrupt
		}
		return &Int64Column{vals: vals}, nil
	case TypeFloat64:
		if len(payload) != 1+8*n {
			return nil, errCorrupt
		}
		vals, err := DecodeFloat64Plain(payload)
		if err != nil {
			return nil, err
		}
		return &Float64Column{vals: vals}, nil
	case TypeString:
		vals, err := DecodeStringDict(payload)
		if err != nil || len(vals) != n {
			return nil, errCorrupt
		}
		return &StringColumn{vals: vals}, nil
	case TypeBool:
		ints, err := DecodeInt64RLEMax(payload, n)
		if err != nil || len(ints) != n {
			return nil, errCorrupt
		}
		vals := make([]bool, n)
		for i, v := range ints {
			if uint64(v) > 1 {
				return nil, errCorrupt
			}
			vals[i] = v == 1
		}
		return &BoolColumn{vals: vals}, nil
	}
	return nil, errCorrupt
}

// nullBitmap rebuilds a null bitmap of exactly n bits from serialized
// words: words past the n-th bit are dropped and missing words read as
// no nulls, whatever word count the frame declared.
func nullBitmap(words []byte, n int) *Bitmap {
	bm := NewBitmap(n)
	for i := range bm.words {
		if 8*i >= len(words) {
			break
		}
		bm.words[i] = binary.LittleEndian.Uint64(words[8*i:])
	}
	if rem := n % 64; rem != 0 {
		bm.words[len(bm.words)-1] &= 1<<uint(rem) - 1
	}
	return bm
}
