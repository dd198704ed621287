package wire

import (
	"bytes"
	"math"
	"testing"
	"time"

	"gasf/internal/tuple"
)

// fuzzSchema is the schema malformed inputs are decoded against.
func fuzzSchema(t testing.TB) *tuple.Schema {
	t.Helper()
	s, err := tuple.NewSchema("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seedTuple returns a valid encoded tuple for the fuzz corpora.
func seedTuple(t testing.TB, s *tuple.Schema) []byte {
	t.Helper()
	tp, err := tuple.New(s, 7, time.Unix(1, 500), []float64{1.5, -2.25, 3e300})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := AppendTuple(nil, tp)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// FuzzDecodeTuple asserts DecodeTuple never panics on malformed input,
// and that every accepted input round-trips byte-identically.
func FuzzDecodeTuple(f *testing.F) {
	s := fuzzSchema(f)
	f.Add(seedTuple(f, s))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x41}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, n, err := DecodeTuple(s, data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(tp.Values) != s.Len() {
			t.Fatalf("decoded %d values for schema of %d", len(tp.Values), s.Len())
		}
		re, err := AppendTuple(nil, tp)
		if err != nil {
			t.Fatalf("re-encoding accepted tuple: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// FuzzDecodeTupleInto decodes arbitrary input into a tuple whose Values
// is a window of a larger array, clipped to a fuzzed capacity. It asserts
// the decode agrees with DecodeTuple, reuses the window when it is large
// enough, and never writes past the window's capacity into the array
// behind it.
func FuzzDecodeTupleInto(f *testing.F) {
	s := fuzzSchema(f)
	for _, c := range []uint8{0, 2, 3, 5} {
		f.Add(seedTuple(f, s), c)
	}
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, clip uint8) {
		const sentinel = -12345.5
		backing := make([]float64, 8)
		for i := range backing {
			backing[i] = sentinel
		}
		c := int(clip) % (len(backing) + 1)
		dst := &tuple.Tuple{Values: backing[:0:c]}
		n, err := DecodeTupleInto(dst, s, data)
		want, wn, werr := DecodeTuple(s, data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeTupleInto err %v, DecodeTuple err %v", err, werr)
		}
		for i := c; i < len(backing); i++ {
			if backing[i] != sentinel {
				t.Fatalf("capacity %d: wrote backing[%d] = %v past the window", c, i, backing[i])
			}
		}
		if err != nil {
			return
		}
		if n != wn || dst.Seq != want.Seq || !dst.TS.Equal(want.TS) || dst.Schema() != s {
			t.Fatalf("decoded (%d bytes, seq %d, ts %v), DecodeTuple (%d bytes, seq %d, ts %v)", n, dst.Seq, dst.TS, wn, want.Seq, want.TS)
		}
		if len(dst.Values) != s.Len() {
			t.Fatalf("decoded %d values for schema of %d", len(dst.Values), s.Len())
		}
		for i, v := range dst.Values {
			if math.Float64bits(v) != math.Float64bits(want.Values[i]) {
				t.Fatalf("value %d: %v, want %v", i, v, want.Values[i])
			}
		}
		fits, reused := c >= s.Len(), &dst.Values[0] == &backing[0]
		if reused != fits {
			t.Fatalf("capacity %d for %d values: window reused = %v, want %v", c, s.Len(), reused, fits)
		}
	})
}

// FuzzDecodeTransmission asserts DecodeTransmission never panics on
// malformed input and accepted transmissions round-trip byte-identically.
func FuzzDecodeTransmission(f *testing.F) {
	s := fuzzSchema(f)
	tp, err := tuple.New(s, 1, time.Unix(2, 0), []float64{1, 2, 3})
	if err != nil {
		f.Fatal(err)
	}
	tr, err := AppendTransmission(nil, tp, []string{"A", "B"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tr)
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x01, 0x41})
	f.Add([]byte{0xff, 0xfe, 0xfd})
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, dests, n, err := DecodeTransmission(s, data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(dests) == 0 || len(dests) > MaxDestinations {
			t.Fatalf("accepted %d destinations", len(dests))
		}
		re, err := AppendTransmission(nil, tp, dests)
		if err != nil {
			t.Fatalf("re-encoding accepted transmission: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", data[:n], re)
		}
	})
}
