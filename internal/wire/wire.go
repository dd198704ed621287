// Package wire implements the binary encoding of tuples and labeled
// transmissions used by the dissemination layer. The paper's prototype
// serializes tuples for application-level multicast (§4.1.1); this package
// provides a compact, deterministic format so bandwidth accounting uses
// real wire sizes rather than estimates.
//
// Format (all integers little-endian):
//
//	tuple:        u32 seq | i64 unix-nano timestamp | u16 n | n × f64
//	transmission: u8 destination count | destinations (uvarint len + bytes) | tuple
//
// The schema travels out of band (it is part of the source advertisement),
// so attribute names are not repeated per tuple.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"gasf/internal/tuple"
)

// bufPool recycles encode buffers so per-transmission encoding does not
// heap-allocate in steady state. Buffers are held behind pointers to keep
// Put itself allocation-free.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuf returns an empty encode buffer from the pool. Return it with
// PutBuf once the encoded bytes have been flushed or copied.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf recycles an encode buffer.
func PutBuf(b *[]byte) {
	if b != nil {
		bufPool.Put(b)
	}
}

// MaxDestinations bounds the destination list of one transmission.
const MaxDestinations = 255

// maxValues bounds the per-tuple value count (a u16 on the wire).
const maxValues = 1<<16 - 1

// AppendTuple appends the encoded tuple to buf and returns the extended
// slice.
func AppendTuple(buf []byte, t *tuple.Tuple) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("wire: nil tuple")
	}
	if len(t.Values) > maxValues {
		return nil, fmt.Errorf("wire: %d values exceed the u16 limit", len(t.Values))
	}
	if t.Seq < 0 || int64(t.Seq) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: sequence %d outside u32 range", t.Seq)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Seq))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.TS.UnixNano()))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Values)))
	for _, v := range t.Values {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// TupleSize returns the encoded size of a tuple in bytes.
func TupleSize(t *tuple.Tuple) int { return 4 + 8 + 2 + 8*len(t.Values) }

// tupleHeaderLen is the encoded size of a tuple header (seq + ts + count).
const tupleHeaderLen = 4 + 8 + 2

// decodeTupleHeader validates the header of an encoded tuple against the
// schema and returns seq, timestamp and total encoded size.
func decodeTupleHeader(s *tuple.Schema, data []byte) (seq uint32, ts time.Time, need int, err error) {
	if s == nil {
		return 0, time.Time{}, 0, fmt.Errorf("wire: nil schema")
	}
	if len(data) < tupleHeaderLen {
		return 0, time.Time{}, 0, fmt.Errorf("wire: truncated tuple header (%d bytes)", len(data))
	}
	seq = binary.LittleEndian.Uint32(data)
	ts = time.Unix(0, int64(binary.LittleEndian.Uint64(data[4:])))
	n := int(binary.LittleEndian.Uint16(data[12:]))
	if n != s.Len() {
		return 0, time.Time{}, 0, fmt.Errorf("wire: tuple carries %d values, schema has %d", n, s.Len())
	}
	need = tupleHeaderLen + 8*n
	if len(data) < need {
		return 0, time.Time{}, 0, fmt.Errorf("wire: truncated tuple body (%d of %d bytes)", len(data), need)
	}
	return seq, ts, need, nil
}

// DecodeTuple decodes one tuple bound to the given schema, returning the
// tuple and the number of bytes consumed.
func DecodeTuple(s *tuple.Schema, data []byte) (*tuple.Tuple, int, error) {
	seq, ts, need, err := decodeTupleHeader(s, data)
	if err != nil {
		return nil, 0, err
	}
	values := make([]float64, s.Len())
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[tupleHeaderLen+8*i:]))
	}
	t, err := tuple.New(s, int(seq), ts, values)
	if err != nil {
		return nil, 0, err
	}
	return t, need, nil
}

// DecodeTupleInto decodes one tuple in place into dst, reusing dst's
// Values backing array, and returns the bytes consumed. It is the
// allocation-free decode path for consumers that do not retain tuples
// between frames (replay drivers, benchmarks, client receive loops); see
// tuple.Reuse for the ownership contract.
func DecodeTupleInto(dst *tuple.Tuple, s *tuple.Schema, data []byte) (int, error) {
	seq, ts, need, err := decodeTupleHeader(s, data)
	if err != nil {
		return 0, err
	}
	values, err := tuple.Reuse(dst, s, int(seq), ts)
	if err != nil {
		return 0, err
	}
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[tupleHeaderLen+8*i:]))
	}
	return need, nil
}

// AppendDestinations appends the destination-list prefix of a labeled
// transmission (u8 count, then uvarint-length-prefixed labels).
func AppendDestinations(buf []byte, dests []string) ([]byte, error) {
	if len(dests) == 0 {
		return nil, fmt.Errorf("wire: transmission needs at least one destination")
	}
	if len(dests) > MaxDestinations {
		return nil, fmt.Errorf("wire: %d destinations exceed the u8 limit", len(dests))
	}
	buf = append(buf, byte(len(dests)))
	for _, d := range dests {
		if len(d) == 0 {
			return nil, fmt.Errorf("wire: empty destination label")
		}
		buf = binary.AppendUvarint(buf, uint64(len(d)))
		buf = append(buf, d...)
	}
	return buf, nil
}

// AppendTransmission appends a destination-labeled tuple (the paper's
// tuple-level multicast message: "the multicast protocol allows us to label
// each tuple with the list of the applications that should receive that
// tuple", §1.2).
func AppendTransmission(buf []byte, t *tuple.Tuple, dests []string) ([]byte, error) {
	buf, err := AppendDestinations(buf, dests)
	if err != nil {
		return nil, err
	}
	return AppendTuple(buf, t)
}

// TransmissionEncoder appends labeled transmissions while memoizing the
// encoded destination-list prefix. A dissemination fan-out typically
// releases runs of transmissions carrying an identical destination list
// (one group-membership epoch, one overlap pattern), so the steady state
// re-encodes the labels zero times. The zero value is ready to use; an
// encoder is not safe for concurrent use.
type TransmissionEncoder struct {
	epoch  uint64
	dests  []string
	prefix []byte
	valid  bool
}

// AppendTransmission appends the wire encoding of t labeled with dests.
// epoch identifies the group-membership epoch the destination list was
// derived under; the cached prefix is reused only when both the epoch and
// the list match the previous call, so a stale cache can never survive a
// membership change.
func (enc *TransmissionEncoder) AppendTransmission(buf []byte, epoch uint64, t *tuple.Tuple, dests []string) ([]byte, error) {
	if !enc.valid || enc.epoch != epoch || !slices.Equal(enc.dests, dests) {
		prefix, err := AppendDestinations(enc.prefix[:0], dests)
		if err != nil {
			enc.valid = false
			return nil, err
		}
		enc.prefix = prefix
		enc.dests = append(enc.dests[:0], dests...)
		enc.epoch, enc.valid = epoch, true
	}
	buf = append(buf, enc.prefix...)
	return AppendTuple(buf, t)
}

// TransmissionSize returns the encoded size of a labeled transmission.
func TransmissionSize(t *tuple.Tuple, dests []string) int {
	n := 1
	for _, d := range dests {
		n += uvarintLen(uint64(len(d))) + len(d)
	}
	return n + TupleSize(t)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeTransmissionInto decodes a labeled transmission in place: the
// tuple is decoded into dst (reusing its Values backing array, like
// DecodeTupleInto) and the destination labels are appended to labels as
// views into data. The views are valid only until the caller recycles
// data; consumers that retain labels must copy them out. It is the
// allocation-free receive path for client loops and benchmarks.
func DecodeTransmissionInto(dst *tuple.Tuple, s *tuple.Schema, labels [][]byte, data []byte) ([][]byte, int, error) {
	labels, off, err := DecodeDestinationsInto(labels, data)
	if err != nil {
		return labels, 0, err
	}
	n, err := DecodeTupleInto(dst, s, data[off:])
	if err != nil {
		return labels, 0, err
	}
	return labels, off + n, nil
}

// DecodeDestinationsInto decodes the destination-list prefix of a
// labeled transmission, appending the labels to labels as views into
// data, and returns the prefix length: the tuple starts there. The prefix
// is self-delimiting, so a transmission whose leading bytes equal a
// prefix decoded before carries the same destination list.
func DecodeDestinationsInto(labels [][]byte, data []byte) ([][]byte, int, error) {
	if len(data) < 1 {
		return labels, 0, fmt.Errorf("wire: empty transmission")
	}
	count := int(data[0])
	if count == 0 {
		return labels, 0, fmt.Errorf("wire: transmission with zero destinations")
	}
	off := 1
	for i := 0; i < count; i++ {
		l, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return labels, 0, fmt.Errorf("wire: bad destination length at offset %d", off)
		}
		off += n
		if l == 0 || uint64(len(data)-off) < l {
			return labels, 0, fmt.Errorf("wire: truncated destination at offset %d", off)
		}
		labels = append(labels, data[off:off+int(l)])
		off += int(l)
	}
	return labels, off, nil
}

// TransmissionHasDestination reports whether the encoded transmission
// names app in its destination list, scanning only the label prefix —
// the tuple body is never touched. Replay sessions use it to filter a
// source's log down to one application's stream without decoding, so a
// malformed prefix simply reports false.
func TransmissionHasDestination(data []byte, app string) bool {
	if len(data) < 1 || len(app) == 0 {
		return false
	}
	count := int(data[0])
	off := 1
	for i := 0; i < count; i++ {
		l, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return false
		}
		off += n
		if l == 0 || uint64(len(data)-off) < l {
			return false
		}
		if int(l) == len(app) && string(data[off:off+int(l)]) == app {
			return true
		}
		off += int(l)
	}
	return false
}

// DefaultInternLimit bounds an Interner's table when SetLimit was not
// called.
const DefaultInternLimit = 1024

// Interner maps byte-slice label views to stable strings without
// allocating for labels it has seen before. Long-lived receive loops
// decode destination labels as views into a recycled frame buffer
// (DecodeTransmissionInto); interning converts them to strings the
// caller may retain, and the steady state — a closed working set of
// application names — costs zero allocations per delivery.
//
// The table is bounded: once it holds the limit, the next unseen label
// resets it wholesale (an epoch reset) instead of growing. A session
// fed unbounded distinct labels therefore re-allocates occasionally but
// never leaks, fixing the unbounded growth the per-session intern map
// used to exhibit under churning destination sets. The zero value is
// ready to use; an Interner is not safe for concurrent use.
type Interner struct {
	m     map[string]string
	limit int
}

// SetLimit caps the table at n entries (0 restores the default). It
// does not shrink an existing table until the next epoch reset.
func (in *Interner) SetLimit(n int) { in.limit = n }

// Len returns the current table size.
func (in *Interner) Len() int { return len(in.m) }

// Intern returns a string equal to b, reusing a previously interned
// string when possible. The map lookup with a []byte key compiles to a
// non-allocating probe, so hits cost nothing.
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	limit := in.limit
	if limit <= 0 {
		limit = DefaultInternLimit
	}
	if in.m == nil || len(in.m) >= limit {
		// Epoch reset: drop the whole table rather than grow past the
		// cap. The live working set re-interns within one epoch.
		in.m = make(map[string]string, min(limit, 16))
	}
	s := string(b)
	in.m[s] = s
	return s
}

// DecodeTransmission decodes a labeled transmission, returning the tuple,
// its destinations, and the bytes consumed.
func DecodeTransmission(s *tuple.Schema, data []byte) (*tuple.Tuple, []string, int, error) {
	if len(data) < 1 {
		return nil, nil, 0, fmt.Errorf("wire: empty transmission")
	}
	count := int(data[0])
	if count == 0 {
		return nil, nil, 0, fmt.Errorf("wire: transmission with zero destinations")
	}
	off := 1
	dests := make([]string, 0, count)
	for i := 0; i < count; i++ {
		l, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, nil, 0, fmt.Errorf("wire: bad destination length at offset %d", off)
		}
		off += n
		if l == 0 || uint64(len(data)-off) < l {
			return nil, nil, 0, fmt.Errorf("wire: truncated destination at offset %d", off)
		}
		dests = append(dests, string(data[off:off+int(l)]))
		off += int(l)
	}
	t, n, err := DecodeTuple(s, data[off:])
	if err != nil {
		return nil, nil, 0, err
	}
	return t, dests, off + n, nil
}
