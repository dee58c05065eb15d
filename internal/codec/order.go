package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file contains order-preserving encodings used for composite B+-tree
// keys.  A key built by concatenating these encodings compares bytewise in
// the same order as the tuple of its components, which is what lets the
// Score-Threshold and Chunk methods keep their short lists and long lists
// clustered in (term, score desc, docID) or (term, chunk desc, docID) order
// inside an ordinary B+-tree, exactly as the paper implements them on top of
// BerkeleyDB (§5.2).

// PutOrderedUint64 appends v as 8 big-endian bytes so that bytewise order
// equals numeric order.
func PutOrderedUint64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// OrderedUint64 decodes a value written by PutOrderedUint64.
func OrderedUint64(src []byte) (uint64, int, error) {
	if len(src) < 8 {
		return 0, 0, fmt.Errorf("%w: ordered uint64 needs 8 bytes, have %d", ErrCorrupt, len(src))
	}
	return binary.BigEndian.Uint64(src), 8, nil
}

// orderedFloatBits maps float64 bits to a uint64 whose unsigned order equals
// the float's numeric order (NaNs sort above +Inf; the index layer never
// stores NaN scores).
func orderedFloatBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits // negative numbers: flip everything
	}
	return bits | (1 << 63) // positive numbers: flip the sign bit
}

func floatFromOrderedBits(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// PutOrderedFloat64 appends f encoded so that bytewise order equals
// ascending numeric order.
func PutOrderedFloat64(dst []byte, f float64) []byte {
	return PutOrderedUint64(dst, orderedFloatBits(f))
}

// OrderedFloat64 decodes a value written by PutOrderedFloat64.
func OrderedFloat64(src []byte) (float64, int, error) {
	u, n, err := OrderedUint64(src)
	if err != nil {
		return 0, 0, err
	}
	return floatFromOrderedBits(u), n, nil
}

// PutOrderedFloat64Desc appends f encoded so that bytewise order equals
// descending numeric order.  Score-ordered inverted lists use this so that a
// forward B+-tree scan visits postings from highest to lowest score.
func PutOrderedFloat64Desc(dst []byte, f float64) []byte {
	return PutOrderedUint64(dst, ^orderedFloatBits(f))
}

// OrderedFloat64Desc decodes a value written by PutOrderedFloat64Desc.
func OrderedFloat64Desc(src []byte) (float64, int, error) {
	u, n, err := OrderedUint64(src)
	if err != nil {
		return 0, 0, err
	}
	return floatFromOrderedBits(^u), n, nil
}

// PutOrderedString appends s followed by a 0x00 terminator so that prefix
// keys group together and shorter strings sort before longer ones with the
// same prefix.  The string must not itself contain a NUL byte; term strings
// produced by the analyzer never do.
func PutOrderedString(dst []byte, s string) []byte {
	dst = append(dst, s...)
	return append(dst, 0x00)
}

// OrderedString decodes a string written by PutOrderedString.
func OrderedString(src []byte) (string, int, error) {
	for i, b := range src {
		if b == 0x00 {
			return string(src[:i]), i + 1, nil
		}
	}
	return "", 0, fmt.Errorf("%w: unterminated ordered string", ErrCorrupt)
}
