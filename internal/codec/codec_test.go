package codec

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<40 + 17, math.MaxUint64}
	for _, v := range values {
		buf := PutUvarint(nil, v)
		got, n, err := Uvarint(buf)
		if err != nil {
			t.Fatalf("Uvarint(%d): %v", v, err)
		}
		if got != v || n != len(buf) {
			t.Errorf("Uvarint(%d) = %d consuming %d bytes, want %d consuming %d", v, got, n, v, len(buf))
		}
	}
}

func TestUvarintEmptyInput(t *testing.T) {
	if _, _, err := Uvarint(nil); err == nil {
		t.Fatal("Uvarint(nil) succeeded, want error")
	}
}

func TestVarintRoundTrip(t *testing.T) {
	values := []int64{0, 1, -1, 63, -64, 1 << 30, -(1 << 30), math.MaxInt64, math.MinInt64}
	for _, v := range values {
		buf := PutVarint(nil, v)
		got, n, err := Varint(buf)
		if err != nil {
			t.Fatalf("Varint(%d): %v", v, err)
		}
		if got != v || n != len(buf) {
			t.Errorf("Varint(%d) = %d consuming %d, want %d consuming %d", v, got, n, v, len(buf))
		}
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	values := []float64{0, 1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}
	for _, v := range values {
		buf := PutFloat64(nil, v)
		got, n, err := Float64(buf)
		if err != nil {
			t.Fatalf("Float64(%v): %v", v, err)
		}
		if got != v || n != 8 {
			t.Errorf("Float64(%v) = %v, n=%d", v, got, n)
		}
	}
}

func TestFloat64Short(t *testing.T) {
	if _, _, err := Float64([]byte{1, 2, 3}); err == nil {
		t.Fatal("Float64 on short input succeeded, want error")
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	values := []float32{0, 1.5, -7.75, math.MaxFloat32}
	for _, v := range values {
		buf := PutFloat32(nil, v)
		got, n, err := Float32(buf)
		if err != nil {
			t.Fatalf("Float32(%v): %v", v, err)
		}
		if got != v || n != 4 {
			t.Errorf("Float32(%v) = %v, n=%d", v, got, n)
		}
	}
}

func TestFixedWidthRoundTrip(t *testing.T) {
	b := PutUint32(nil, 0xDEADBEEF)
	v32, n, err := Uint32(b)
	if err != nil || v32 != 0xDEADBEEF || n != 4 {
		t.Errorf("Uint32 round trip = %x, %d, %v", v32, n, err)
	}
	b = PutUint64(nil, 0xCAFEBABE12345678)
	v64, n, err := Uint64(b)
	if err != nil || v64 != 0xCAFEBABE12345678 || n != 8 {
		t.Errorf("Uint64 round trip = %x, %d, %v", v64, n, err)
	}
}

func TestLenBytesRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		buf := PutLenBytes(nil, p)
		got, n, err := LenBytes(buf)
		if err != nil {
			t.Fatalf("LenBytes: %v", err)
		}
		if n != len(buf) || !bytes.Equal(got, p) {
			t.Errorf("LenBytes round trip failed for %d-byte payload", len(p))
		}
	}
}

func TestLenBytesTruncated(t *testing.T) {
	buf := PutLenBytes(nil, []byte("hello"))
	if _, _, err := LenBytes(buf[:len(buf)-2]); err == nil {
		t.Fatal("LenBytes on truncated input succeeded, want error")
	}
}

func TestStringRoundTrip(t *testing.T) {
	buf := PutString(nil, "golden gate")
	s, n, err := String(buf)
	if err != nil || s != "golden gate" || n != len(buf) {
		t.Errorf("String round trip = %q, %d, %v", s, n, err)
	}
}

func TestOrderedUint64Order(t *testing.T) {
	values := []uint64{0, 1, 255, 256, 1 << 31, math.MaxUint64}
	for i := 0; i < len(values); i++ {
		for j := 0; j < len(values); j++ {
			a := PutOrderedUint64(nil, values[i])
			b := PutOrderedUint64(nil, values[j])
			wantCmp := 0
			if values[i] < values[j] {
				wantCmp = -1
			} else if values[i] > values[j] {
				wantCmp = 1
			}
			if got := bytes.Compare(a, b); got != wantCmp {
				t.Errorf("order of %d vs %d: byte compare %d, want %d", values[i], values[j], got, wantCmp)
			}
		}
	}
}

func TestOrderedUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 42, math.MaxUint64} {
		got, n, err := OrderedUint64(PutOrderedUint64(nil, v))
		if err != nil || got != v || n != 8 {
			t.Errorf("OrderedUint64 round trip of %d = %d, %d, %v", v, got, n, err)
		}
	}
}

func TestOrderedFloat64OrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := PutOrderedFloat64(nil, a)
		kb := PutOrderedFloat64(nil, b)
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			// 0 and -0 encode differently but compare equal numerically;
			// accept either ordering for that pair.
			if a == 0 && b == 0 {
				return true
			}
			return cmp == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOrderedFloat64DescOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prevScore := 1e9
	var prevKey []byte
	for i := 0; i < 200; i++ {
		score := prevScore - rng.Float64()*100 - 0.001
		key := PutOrderedFloat64Desc(nil, score)
		if prevKey != nil && bytes.Compare(prevKey, key) >= 0 {
			t.Fatalf("descending scores must produce ascending keys: score %v after %v", score, prevScore)
		}
		prevKey = key
		prevScore = score
	}
}

func TestOrderedFloat64RoundTrip(t *testing.T) {
	values := []float64{0, 1.25, -3.5, 87.13, 124.2, math.MaxFloat64, -math.MaxFloat64}
	for _, v := range values {
		got, n, err := OrderedFloat64(PutOrderedFloat64(nil, v))
		if err != nil || got != v || n != 8 {
			t.Errorf("OrderedFloat64 round trip of %v = %v, %d, %v", v, got, n, err)
		}
		gotDesc, n, err := OrderedFloat64Desc(PutOrderedFloat64Desc(nil, v))
		if err != nil || gotDesc != v || n != 8 {
			t.Errorf("OrderedFloat64Desc round trip of %v = %v, %d, %v", v, gotDesc, n, err)
		}
	}
}

func TestOrderedStringRoundTripAndOrder(t *testing.T) {
	words := []string{"", "a", "ab", "b", "golden", "gate", "news"}
	for _, w := range words {
		got, n, err := OrderedString(PutOrderedString(nil, w))
		if err != nil || got != w {
			t.Errorf("OrderedString round trip of %q = %q, %d, %v", w, got, n, err)
		}
	}
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		a := PutOrderedString(nil, sorted[i-1])
		b := PutOrderedString(nil, sorted[i])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("encoded order of %q and %q does not match string order", sorted[i-1], sorted[i])
		}
	}
}

func TestOrderedStringUnterminated(t *testing.T) {
	if _, _, err := OrderedString([]byte("no terminator")); err == nil {
		t.Fatal("OrderedString without terminator succeeded, want error")
	}
}
