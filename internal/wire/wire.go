// Package wire is the Vertexica client/server protocol: length-
// prefixed frames over a byte stream, with result batches serialized
// column-wise in the storage column frame (RLE / delta varint for
// integers, dictionary for strings, plain words for floats) — the same
// frame spill runs and snapshots use, so results ship compressed
// exactly as they rest on disk.
//
// Frame layout:
//
//	[1 byte type][4 bytes payload length, big endian][payload]
//
// A conversation is strictly request/response per statement, keyed by
// a client-assigned statement id, except FrameCancel, which the client
// may send while a statement is in flight; the server then terminates
// that statement with FrameError("statement cancelled").
//
//	client → server                      server → client
//	-------------------                  -------------------
//	Hello{options}                       HelloOK{sessionID, info}
//	Query{stmt, sql[, rows]}             RowsHeader{stmt, schema}
//	Prepare{prep, sql}                     RowsBatch{stmt, batch}...
//	BindExec{stmt, prep, args[, rows]}   ExecOK{stmt, rowsAffected}
//	Graph{stmt, verb, args}              Error{stmt, message}
//	Cancel{stmt}                         Done{stmt[, stats]}
//	Goodbye{}                            PrepareOK{prep}
//
// A statement exchange ends with exactly one terminal frame: Done on
// success (after the RowsBatch stream or ExecOK) or Error on failure.
// Query and BindExec may end with an optional "rows expected" flag
// byte (see PutFlag): when set, the server refuses a statement that
// returns no rows after parsing it and before running it. A frame
// without the byte decodes as unset.
// Done may carry an optional stats trailer (see PutStats) after the
// statement id; clients that stop at the id ignore it.
// Results stream, so an Error may arrive after RowsBatch frames have
// already shipped (an executor or encoder failure mid-result); no Done
// follows an Error, and the client must discard the partial rows and
// surface only the error.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/storage"
)

// ProtocolVersion is negotiated in Hello/HelloOK. Version 2 made
// FrameError terminal: a failed statement is no longer followed by
// FrameDone.
const ProtocolVersion = 2

// MaxFrameSize caps a frame payload (64 MiB): a corrupt or hostile
// length header must not become an allocation bomb.
const MaxFrameSize = 64 << 20

// Frame types. Client-originated frames have the high bit clear,
// server-originated frames have it set.
const (
	FrameHello    byte = 0x01
	FrameQuery    byte = 0x02
	FramePrepare  byte = 0x03
	FrameBindExec byte = 0x04
	FrameCancel   byte = 0x05
	FrameGraph    byte = 0x06
	FrameGoodbye  byte = 0x07

	FrameHelloOK    byte = 0x81
	FrameRowsHeader byte = 0x82
	FrameRowsBatch  byte = 0x83
	FrameExecOK     byte = 0x84
	FrameError      byte = 0x85
	FrameDone       byte = 0x86
	FramePrepareOK  byte = 0x87
)

// ErrCorrupt reports malformed frame payloads.
var ErrCorrupt = errors.New("wire: corrupt frame payload")

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFrameSize)
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r, rejecting oversized payloads
// before allocating.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrameSize)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// Buffer builds a frame payload.
type Buffer struct{ B []byte }

// PutUvarint appends an unsigned varint.
func (b *Buffer) PutUvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.B = append(b.B, tmp[:n]...)
}

// PutU32 appends a statement/prepared id.
func (b *Buffer) PutU32(v uint32) { b.PutUvarint(uint64(v)) }

// PutBytes appends a length-prefixed byte slice.
func (b *Buffer) PutBytes(p []byte) {
	b.PutUvarint(uint64(len(p)))
	b.B = append(b.B, p...)
}

// PutString appends a length-prefixed string.
func (b *Buffer) PutString(s string) {
	b.PutUvarint(uint64(len(s)))
	b.B = append(b.B, s...)
}

// PutValue appends one typed SQL value (prepared-statement arguments).
func (b *Buffer) PutValue(v storage.Value) {
	b.B = append(b.B, byte(v.Type))
	if v.Null {
		b.B = append(b.B, 1)
		return
	}
	b.B = append(b.B, 0)
	switch v.Type {
	case storage.TypeInt64, storage.TypeBool:
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], v.I)
		b.B = append(b.B, tmp[:n]...)
	case storage.TypeFloat64:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
		b.B = append(b.B, tmp[:]...)
	case storage.TypeString:
		b.PutString(v.S)
	}
}

// PutFlag appends an optional trailing flag byte.
func (b *Buffer) PutFlag(v bool) {
	if v {
		b.B = append(b.B, 1)
	} else {
		b.B = append(b.B, 0)
	}
}

// Reader decodes a frame payload; errors are sticky.
type Reader struct {
	B   []byte
	Err error
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B)
	if n <= 0 {
		r.Err = ErrCorrupt
		return 0
	}
	r.B = r.B[n:]
	return v
}

// U32 reads a statement/prepared id.
func (r *Reader) U32() uint32 { return uint32(r.Uvarint()) }

// Bytes reads a length-prefixed byte slice (shared with the payload).
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.Err != nil {
		return nil
	}
	if n > uint64(len(r.B)) {
		r.Err = ErrCorrupt
		return nil
	}
	p := r.B[:n]
	r.B = r.B[n:]
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Value reads one typed SQL value.
func (r *Reader) Value() storage.Value {
	if r.Err != nil {
		return storage.Value{}
	}
	if len(r.B) < 2 {
		r.Err = ErrCorrupt
		return storage.Value{}
	}
	typ := storage.Type(r.B[0])
	null := r.B[1] == 1
	r.B = r.B[2:]
	switch typ {
	case storage.TypeInt64, storage.TypeFloat64, storage.TypeString, storage.TypeBool:
	default:
		r.Err = ErrCorrupt
		return storage.Value{}
	}
	if null {
		return storage.Null(typ)
	}
	switch typ {
	case storage.TypeInt64, storage.TypeBool:
		v, n := binary.Varint(r.B)
		if n <= 0 {
			r.Err = ErrCorrupt
			return storage.Value{}
		}
		r.B = r.B[n:]
		return storage.Value{Type: typ, I: v}
	case storage.TypeFloat64:
		if len(r.B) < 8 {
			r.Err = ErrCorrupt
			return storage.Value{}
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.B))
		r.B = r.B[8:]
		return storage.Float64(f)
	default: // TypeString
		return storage.Str(r.String())
	}
}

// Flag reads an optional trailing flag byte; an absent byte (a frame
// from a peer that predates the flag) reads as false.
func (r *Reader) Flag() bool {
	if r.Err != nil || len(r.B) == 0 {
		return false
	}
	v := r.B[0] == 1
	r.B = r.B[1:]
	return v
}

// Done reports whether the payload was fully and cleanly consumed.
func (r *Reader) Done() bool { return r.Err == nil && len(r.B) == 0 }

// Stat is one named counter in a Done-frame stats trailer.
type Stat struct {
	Name  string
	Value int64
}

// PutStats appends a stats trailer to a Done-frame payload: a pair
// count followed by (name, signed varint) pairs. The trailer rides
// after the statement id, where pre-trailer clients simply stop
// reading, so it is wire-compatible with protocol version 2 — graph
// verbs use it to ship their RunStats (supersteps, cache hits, skipped
// partitions) without a schema change.
func (b *Buffer) PutStats(stats []Stat) {
	if len(stats) == 0 {
		return
	}
	b.PutUvarint(uint64(len(stats)))
	for _, s := range stats {
		b.PutString(s.Name)
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], s.Value)
		b.B = append(b.B, tmp[:n]...)
	}
}

// Stats reads a Done-frame stats trailer; nil when the payload carries
// none (an old server, or a statement with nothing to report).
func (r *Reader) Stats() []Stat {
	if r.Err != nil || len(r.B) == 0 {
		return nil
	}
	n := r.Uvarint()
	if r.Err != nil || n > uint64(len(r.B)) {
		r.Err = ErrCorrupt
		return nil
	}
	out := make([]Stat, 0, n)
	for i := uint64(0); i < n; i++ {
		name := r.String()
		if r.Err != nil {
			return nil
		}
		v, vn := binary.Varint(r.B)
		if vn <= 0 {
			r.Err = ErrCorrupt
			return nil
		}
		r.B = r.B[vn:]
		out = append(out, Stat{Name: name, Value: v})
	}
	return out
}
