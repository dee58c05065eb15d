package codec

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCodec feeds arbitrary bytes to every decoder that production code
// calls.  Each must not panic, must never claim more bytes than it was
// given, and on success must return a value that its encoder writes back
// as bytes decoding, in full, to the same value.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})                                             // overlong varint zero
	f.Add(bytes.Repeat([]byte{0xff}, 11))                                 // varint overflow
	f.Add([]byte{0x05, 'a', 'b'})                                         // length prefix past the end
	f.Add(PutString(nil, "golden gate"))                                  // a term
	f.Add(PutOrderedFloat64Desc(PutOrderedUint64(nil, 42), math.Inf(-1))) // ordered key parts
	f.Add(PutFloat64(nil, math.NaN()))
	f.Fuzz(func(t *testing.T, src []byte) {
		checkDecoder(t, "Uvarint", src, Uvarint, PutUvarint, equal[uint64])
		checkDecoder(t, "Varint", src, Varint, PutVarint, equal[int64])
		checkDecoder(t, "LenBytes", src, LenBytes, PutLenBytes, bytes.Equal)
		checkDecoder(t, "String", src, String, PutString, equal[string])
		checkDecoder(t, "Float64", src, Float64, PutFloat64, sameFloat64)
		checkDecoder(t, "Float32", src, Float32, PutFloat32, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
		checkDecoder(t, "Uint64", src, Uint64, PutUint64, equal[uint64])
		checkDecoder(t, "OrderedUint64", src, OrderedUint64, PutOrderedUint64, equal[uint64])
		checkDecoder(t, "OrderedFloat64Desc", src, OrderedFloat64Desc, PutOrderedFloat64Desc, sameFloat64)
	})
}

// checkDecoder decodes src with dec and, on success, round-trips the value
// through enc.
func checkDecoder[T any](t *testing.T, name string, src []byte, dec func([]byte) (T, int, error), enc func([]byte, T) []byte, same func(a, b T) bool) {
	t.Helper()
	v, n, err := dec(src)
	if n < 0 || n > len(src) {
		t.Fatalf("%s(%x) consumed %d of %d bytes", name, src, n, len(src))
	}
	if err != nil {
		return
	}
	if n == 0 {
		t.Fatalf("%s(%x) succeeded consuming no bytes", name, src)
	}
	buf := enc(nil, v)
	again, m, err := dec(buf)
	if err != nil || m != len(buf) || !same(again, v) {
		t.Fatalf("%s(%x) = %v; re-encoded as %x it decodes to %v, %d of %d bytes, %v", name, src, v, buf, again, m, len(buf), err)
	}
}

func equal[T comparable](a, b T) bool { return a == b }

// sameFloat64 compares bit patterns, so a NaN equals itself.
func sameFloat64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
