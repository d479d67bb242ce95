package storage

import (
	"encoding/binary"
	"testing"
)

// Corrupt-input regression tests: a hostile length header must fail
// with errCorrupt before any allocation proportional to the claimed
// (rather than actual) size happens. Each crafted input is a handful of
// bytes claiming gigabytes of decoded data.

func TestDecodeStringDictHugeDictCount(t *testing.T) {
	buf := []byte{byte(EncDict)}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 1<<40) // dictionary "contains" 2^40 strings
	buf = append(buf, tmp[:n]...)
	if _, err := DecodeStringDict(buf); err == nil {
		t.Fatal("huge dictionary count must be rejected")
	}
}

func TestDecodeStringDictHugeCodeCount(t *testing.T) {
	// Valid one-entry dictionary, then a code count far beyond the input.
	buf := []byte{byte(EncDict)}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 1) // 1 dict entry
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], 1) // of length 1
	buf = append(buf, tmp[:n]...)
	buf = append(buf, 'x')
	n = binary.PutUvarint(tmp[:], 1<<40) // 2^40 codes
	buf = append(buf, tmp[:n]...)
	if _, err := DecodeStringDict(buf); err == nil {
		t.Fatal("huge code count must be rejected")
	}
}

func TestDecodeInt64RLEHugeRun(t *testing.T) {
	buf := []byte{byte(EncRLE)}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 1<<50) // run of 2^50 values
	buf = append(buf, tmp[:n]...)
	n = binary.PutVarint(tmp[:], 42)
	buf = append(buf, tmp[:n]...)
	if _, err := DecodeInt64RLE(buf); err == nil {
		t.Fatal("absurd run length must be rejected")
	}
}

func TestDecodeInt64RLEMaxBound(t *testing.T) {
	enc := EncodeInt64RLE([]int64{5, 5, 5, 7})
	if vals, err := DecodeInt64RLEMax(enc, 4); err != nil || len(vals) != 4 {
		t.Fatalf("exact bound: vals=%v err=%v", vals, err)
	}
	if _, err := DecodeInt64RLEMax(enc, 3); err == nil {
		t.Fatal("decode exceeding max must fail")
	}
	if _, err := DecodeInt64RLEMax(enc, -1); err == nil {
		t.Fatal("negative max must fail")
	}
}

func TestDecodeInt64RLEZeroRun(t *testing.T) {
	buf := []byte{byte(EncRLE)}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 0) // zero-length run: never emitted
	buf = append(buf, tmp[:n]...)
	n = binary.PutVarint(tmp[:], 1)
	buf = append(buf, tmp[:n]...)
	if _, err := DecodeInt64RLE(buf); err == nil {
		t.Fatal("zero-length run must be rejected")
	}
}

// Fuzzers: decoders must never panic or over-allocate on arbitrary
// bytes, and must round-trip anything the encoders produce.

func FuzzDecodeInt64RLE(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeInt64RLE([]int64{1, 1, 2, 3, 3, 3}))
	f.Add([]byte{byte(EncRLE), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeInt64RLE(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same values.
		rt, err := DecodeInt64RLE(EncodeInt64RLE(vals))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(rt) != len(vals) {
			t.Fatalf("round trip %d != %d values", len(rt), len(vals))
		}
	})
}

func FuzzDecodeInt64Delta(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeInt64Delta([]int64{10, 20, 30}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeInt64Delta(data)
		if err != nil {
			return
		}
		if len(vals) > len(data) {
			t.Fatalf("delta decoded %d values from %d bytes", len(vals), len(data))
		}
	})
}

func FuzzDecodeStringDict(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeStringDict([]string{"a", "b", "a"}))
	f.Add([]byte{byte(EncDict), 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeStringDict(data)
		if err != nil {
			return
		}
		// Allocation-safety invariant: entries are bounded by input size.
		if len(vals) > len(data) {
			t.Fatalf("dict decoded %d values from %d bytes", len(vals), len(data))
		}
	})
}

func FuzzDecodeFloat64Plain(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFloat64Plain([]float64{1.5, -2.25}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeFloat64Plain(data)
		if err != nil {
			return
		}
		if len(vals)*8 > len(data) {
			t.Fatalf("plain decoded %d floats from %d bytes", len(vals), len(data))
		}
	})
}

// FuzzEncodeInt64 checks the one-pass encoding choice against the
// two-encode reference on fuzzer-built columns: 8-byte little-endian
// values, each repeated 1–4 times by a control byte so runs occur.
func FuzzEncodeInt64(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []int64
		for len(data) >= 9 {
			v := int64(binary.LittleEndian.Uint64(data))
			for r := 0; r <= int(data[8]%4); r++ {
				vals = append(vals, v)
			}
			data = data[9:]
		}
		checkEncodeInt64(t, "fuzz", vals)
	})
}
