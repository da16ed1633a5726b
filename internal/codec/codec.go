// Package codec provides the binary wire format for designated messages
// and program state: length-prefixed little-endian encoding with no
// reflection, so communication accounting measures real serialized bytes
// and checkpoints are byte-stable.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// AppendUint32 appends v in little-endian order.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendUint64 appends v in little-endian order.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendFloat64 appends the IEEE-754 bits of v.
func AppendFloat64(dst []byte, v float64) []byte {
	return AppendUint64(dst, math.Float64bits(v))
}

// AppendInt32 appends v as its two's-complement uint32 bits.
func AppendInt32(dst []byte, v int32) []byte {
	return AppendUint32(dst, uint32(v))
}

// AppendInt64 appends v as its two's-complement uint64 bits.
func AppendInt64(dst []byte, v int64) []byte {
	return AppendUint64(dst, uint64(v))
}

// AppendBool appends v as one byte (0 or 1).
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloat64s appends a length-prefixed vector. Each vector appender
// grows dst once, for the prefix and every element.
func AppendFloat64s(dst []byte, vs []float64) []byte {
	dst = AppendUint32(slices.Grow(dst, 4+8*len(vs)), uint32(len(vs)))
	for _, v := range vs {
		dst = AppendFloat64(dst, v)
	}
	return dst
}

// AppendInt32s appends a length-prefixed vector.
func AppendInt32s(dst []byte, vs []int32) []byte {
	dst = AppendUint32(slices.Grow(dst, 4+4*len(vs)), uint32(len(vs)))
	for _, v := range vs {
		dst = AppendInt32(dst, v)
	}
	return dst
}

// AppendInt64s appends a length-prefixed vector.
func AppendInt64s(dst []byte, vs []int64) []byte {
	dst = AppendUint32(slices.Grow(dst, 4+8*len(vs)), uint32(len(vs)))
	for _, v := range vs {
		dst = AppendInt64(dst, v)
	}
	return dst
}

// AppendBools appends a length-prefixed vector of booleans, one byte
// each.
func AppendBools(dst []byte, vs []bool) []byte {
	dst = AppendUint32(slices.Grow(dst, 4+len(vs)), uint32(len(vs)))
	for _, v := range vs {
		dst = AppendBool(dst, v)
	}
	return dst
}

// AppendBytes appends a length-prefixed byte blob (a nested payload:
// serialized program state inside an RPC frame, for example).
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendUint32(slices.Grow(dst, 4+len(b)), uint32(len(b)))
	return append(dst, b...)
}

// Reader decodes values appended by the Append functions.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("codec: truncated input at offset %d (need %d of %d)", r.off, n, len(r.buf))
		return false
	}
	return true
}

// Uint32 decodes a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Uint64 decodes a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Int32 decodes a two's-complement int32.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Int64 decodes a two's-complement int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Bool decodes one byte as a boolean; any nonzero value is true.
func (r *Reader) Bool() bool {
	if !r.need(1) {
		return false
	}
	v := r.buf[r.off]
	r.off++
	return v != 0
}

// Float64 decodes an IEEE-754 float.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// vec decodes a vector's length prefix and returns its elements' bytes,
// checked to be present before the caller allocates — the header-lie
// guard: a corrupted or malicious prefix claiming 2^32 elements fails
// here with a truncation error instead of forcing a giant allocation.
func (r *Reader) vec(elemBytes int) (b []byte, n int, ok bool) {
	n = int(r.Uint32())
	if r.err != nil || !r.need(n*elemBytes) {
		return nil, 0, false
	}
	b = r.buf[r.off : r.off+n*elemBytes]
	r.off += n * elemBytes
	return b, n, true
}

// Float64s decodes a length-prefixed vector.
func (r *Reader) Float64s() []float64 {
	b, n, ok := r.vec(8)
	if !ok {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Int32s decodes a length-prefixed vector.
func (r *Reader) Int32s() []int32 {
	b, n, ok := r.vec(4)
	if !ok {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// Int64s decodes a length-prefixed vector.
func (r *Reader) Int64s() []int64 {
	b, n, ok := r.vec(8)
	if !ok {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Bools decodes a length-prefixed vector of booleans; any nonzero byte
// is true.
func (r *Reader) Bools() []bool {
	b, n, ok := r.vec(1)
	if !ok {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = b[i] != 0
	}
	return out
}

// Bytes decodes a length-prefixed byte blob. The returned slice aliases
// the reader's buffer (the nested payload is decoded in place, not
// copied); callers that retain it past the buffer's lifetime must copy.
func (r *Reader) Bytes() []byte {
	b, _, _ := r.vec(1)
	return b
}
