// Package binenc is the one byte-level codec every binary format in the
// repo is written against: the upload wire (internal/server/wirecodec.go),
// the WAL payloads (internal/server/walcodec.go), the shard transport and
// the node and coordinator snapshots (internal/cluster). All of them are
// fixed little-endian fields, u8/u16 length-prefixed strings and exact
// IEEE-754 bits, so one bounds-checked Reader, one set of appenders and one
// observation/scan block serve them all.
//
// The Reader's error is sticky. After the first failure every read returns
// the zero value and Err reports that first failure, so a decoder reads its
// fields straight through and checks once. Three rules keep that safe on
// hostile input:
//
//   - a decoded element count goes through Count before anything is
//     allocated from it, so a frame cannot claim more elements than its
//     remaining bytes could hold;
//   - a loop driven by a decoded count stops when Err is set (Count already
//     bounds it by the input length, the Err test ends it at the first bad
//     element);
//   - a decoder finishes with Done, which also refuses trailing bytes.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Typed decode and encode failures, distinguishable with errors.Is. The
// server's ErrWire* and the cluster's Err* names are these same values.
var (
	// ErrTruncated: the input ends before a declared field.
	ErrTruncated = errors.New("binenc: truncated frame")
	// ErrOversized: a declared count cannot fit the bytes that remain, the
	// payload length disagrees with the body, or bytes trail the last field.
	ErrOversized = errors.New("binenc: oversized frame")
	// ErrValue: a field holds a value the format cannot carry (a string
	// longer than its length prefix, an RSSI outside int16) or one with no
	// meaning in it (an unsorted map, an unknown flag).
	ErrValue = errors.New("binenc: invalid frame value")
)

// Reader is a bounds-checked cursor over one frame with a sticky error.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first failure, nil while every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Fail records err as the reader's failure unless one is already set — how
// a decoder reports a field that parsed but holds an invalid value.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Take returns the next n bytes, aliasing the input, or nil after a failure.
// The failure path only stores the bare sentinel — Done adds the position —
// which keeps Take, and with it every fixed-width read, small enough to
// inline into the decoders.
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.data)-r.off {
		if r.err == nil {
			r.err = ErrTruncated
		}
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Mark returns the cursor position, for Since.
func (r *Reader) Mark() int { return r.off }

// Since returns the bytes read since mark, aliasing the input (capacity
// clipped, so an append to the result copies), or nil after a failure — how
// a decoder keeps the encoding of an element it has just validated.
func (r *Reader) Since(mark int) []byte {
	if r.err != nil {
		return nil
	}
	return r.data[mark:r.off:r.off]
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Take(2); len(b) == 2 {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); len(b) == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I16 reads a little-endian two's-complement int16, widened.
func (r *Reader) I16() int { return int(int16(r.U16())) }

// F64 reads the exact IEEE-754 bits of a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str8 reads a u8-length-prefixed string.
func (r *Reader) Str8() string { return string(r.Take(int(r.U8()))) }

// Str16 reads a u16-length-prefixed string.
func (r *Reader) Str16() string { return string(r.Take(int(r.U16()))) }

// Count checks a decoded element count against the unread bytes: n elements
// of at least minBytes (>= 1) each must fit, or the reader fails with
// ErrOversized. It returns n, or 0 after a failure, so a slice sized from
// the result and a loop bounded by it never exceed the input length.
func (r *Reader) Count(n uint32, minBytes int) int {
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minBytes) > int64(r.Len()) {
		r.err = fmt.Errorf("%w: claims %d elements of at least %d bytes in %d remaining bytes",
			ErrOversized, n, minBytes, r.Len())
		return 0
	}
	return int(n)
}

// PayloadLen reads the u32 payload length that closes a frame header and
// requires it to equal the unread byte count exactly.
func (r *Reader) PayloadLen() {
	plen := r.U32()
	if r.err != nil {
		return
	}
	switch rest := r.Len(); {
	case int64(plen) > int64(rest):
		r.err = fmt.Errorf("%w: header declares %d payload bytes, %d present", ErrTruncated, plen, rest)
	case int64(plen) < int64(rest):
		r.err = fmt.Errorf("%w: header declares %d payload bytes, %d present", ErrOversized, plen, rest)
	}
}

// Done ends a decode: it returns the reader's failure, or ErrOversized when
// every field parsed but bytes remain. The cursor stops at the first failed
// read, so a truncation is reported with the offset of the field it cut.
func (r *Reader) Done() error {
	switch {
	case r.err == nil && r.off != len(r.data):
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrOversized, len(r.data)-r.off)
	case r.err == ErrTruncated:
		r.err = fmt.Errorf("%w: input ends inside the field at offset %d of %d", ErrTruncated, r.off, len(r.data))
	}
	return r.err
}

// AppendU16 appends a little-endian uint16.
func AppendU16(buf []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(buf, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// AppendF64 appends the exact IEEE-754 bits of v.
func AppendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendStr8 appends a u8-length-prefixed string.
func AppendStr8(buf []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint8 {
		return nil, fmt.Errorf("%w: string of %d bytes behind a u8 length", ErrValue, len(s))
	}
	return append(append(buf, byte(len(s))), s...), nil
}

// AppendStr16 appends a u16-length-prefixed string.
func AppendStr16(buf []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: string of %d bytes behind a u16 length", ErrValue, len(s))
	}
	return append(AppendU16(buf, uint16(len(s))), s...), nil
}

// headerSize is the size of the `u8 version | u8 kind | u32 payloadLen`
// header the upload wire and the shard transport share.
const headerSize = 6

// NewFrame starts a frame: the header with its length slot still zero.
func NewFrame(version, kind byte, sizeHint int) []byte {
	buf := make([]byte, headerSize, headerSize+sizeHint)
	buf[0], buf[1] = version, kind
	return buf
}

// FinishFrame stamps the payload length into the header NewFrame reserved.
func FinishFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[2:headerSize], uint32(len(buf)-headerSize))
	return buf
}
