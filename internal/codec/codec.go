package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is returned when a decoder encounters malformed input.
var ErrCorrupt = errors.New("codec: corrupt input")

// PutUvarint appends v to dst as a variable-length unsigned integer and
// returns the extended slice.
func PutUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// Uvarint decodes an unsigned varint from src, returning the value and the
// number of bytes consumed.
func Uvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: uvarint", ErrCorrupt)
	}
	return v, n, nil
}

// PutVarint appends v to dst using zig-zag encoding and returns the extended
// slice.
func PutVarint(dst []byte, v int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// Varint decodes a zig-zag signed varint from src, returning the value and
// the number of bytes consumed.
func Varint(src []byte) (int64, int, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: varint", ErrCorrupt)
	}
	return v, n, nil
}

// PutFloat64 appends the IEEE-754 bits of v in little-endian order.
func PutFloat64(dst []byte, v float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return append(dst, buf[:]...)
}

// Float64 decodes a float64 written by PutFloat64.
func Float64(src []byte) (float64, int, error) {
	if len(src) < 8 {
		return 0, 0, fmt.Errorf("%w: float64 needs 8 bytes, have %d", ErrCorrupt, len(src))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src)), 8, nil
}

// PutFloat32 appends the IEEE-754 bits of v in little-endian order.  Term
// scores are stored as float32 in the TermScore index variants to keep
// postings small, matching the paper's observation that the TermScore lists
// are about 3x the ID lists rather than larger.
func PutFloat32(dst []byte, v float32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
	return append(dst, buf[:]...)
}

// Float32 decodes a float32 written by PutFloat32.
func Float32(src []byte) (float32, int, error) {
	if len(src) < 4 {
		return 0, 0, fmt.Errorf("%w: float32 needs 4 bytes, have %d", ErrCorrupt, len(src))
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(src)), 4, nil
}

// PutUint32 appends v in little-endian order.
func PutUint32(dst []byte, v uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return append(dst, buf[:]...)
}

// Uint32 decodes a fixed-width uint32.
func Uint32(src []byte) (uint32, int, error) {
	if len(src) < 4 {
		return 0, 0, fmt.Errorf("%w: uint32 needs 4 bytes, have %d", ErrCorrupt, len(src))
	}
	return binary.LittleEndian.Uint32(src), 4, nil
}

// PutUint64 appends v in little-endian order.
func PutUint64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// Uint64 decodes a fixed-width uint64.
func Uint64(src []byte) (uint64, int, error) {
	if len(src) < 8 {
		return 0, 0, fmt.Errorf("%w: uint64 needs 8 bytes, have %d", ErrCorrupt, len(src))
	}
	return binary.LittleEndian.Uint64(src), 8, nil
}

// PutLenBytes appends a length-prefixed byte string.
func PutLenBytes(dst, b []byte) []byte {
	dst = PutUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// LenBytes decodes a length-prefixed byte string, returning a sub-slice of
// src (no copy) and the number of bytes consumed.
func LenBytes(src []byte) ([]byte, int, error) {
	n, sz, err := Uvarint(src)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(src)-sz) < n {
		return nil, 0, fmt.Errorf("%w: length prefix %d exceeds remaining %d bytes", ErrCorrupt, n, len(src)-sz)
	}
	return src[sz : sz+int(n)], sz + int(n), nil
}

// PutString appends a length-prefixed UTF-8 string.
func PutString(dst []byte, s string) []byte {
	dst = PutUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// String decodes a length-prefixed string.
func String(src []byte) (string, int, error) {
	b, n, err := LenBytes(src)
	if err != nil {
		return "", 0, err
	}
	return string(b), n, nil
}
