package filter

import (
	"fmt"
	"time"

	"gasf/internal/tuple"
)

// wedgeEntry is one candidate extreme: the key (monotonically increasing;
// typically a timestamp in nanoseconds) and the monitored value.
type wedgeEntry struct {
	key int64
	val float64
}

// wedgeQueue is a monotonic deque: push at the back (discarding dominated
// entries first), evict at the front. It is a head-indexed slice compacted
// in place, so steady-state updates never allocate.
type wedgeQueue struct {
	buf  []wedgeEntry
	head int
}

func (q *wedgeQueue) empty() bool       { return q.head == len(q.buf) }
func (q *wedgeQueue) front() wedgeEntry { return q.buf[q.head] }
func (q *wedgeQueue) back() wedgeEntry  { return q.buf[len(q.buf)-1] }
func (q *wedgeQueue) popBack()          { q.buf = q.buf[:len(q.buf)-1] }
func (q *wedgeQueue) push(e wedgeEntry) { q.buf = append(q.buf, e) }
func (q *wedgeQueue) reset()            { q.buf, q.head = q.buf[:0], 0 }

func (q *wedgeQueue) popFront() {
	q.head++
	if q.head == len(q.buf) {
		q.reset()
		return
	}
	// Compact once the dead prefix dominates, keeping memory proportional
	// to the live window.
	if q.head >= 64 && q.head > len(q.buf)-q.head {
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
}

// MonotonicWedge maintains the running maximum and minimum of a sliding
// window using Lemire's streaming max-min filter: two monotonic deques
// (the "wedge") updated with amortized O(1) comparisons per element and —
// unlike the naive rescan of the window on every update — no per-element
// allocation in steady state.
//
// Keys must be pushed in non-decreasing order; eviction drops every entry
// whose key falls before the window start. The zero value is an empty
// wedge.
type MonotonicWedge struct {
	maxq wedgeQueue
	minq wedgeQueue
}

// Push appends the value observed at the given key (e.g. a timestamp in
// nanoseconds). Keys must not decrease between calls.
func (w *MonotonicWedge) Push(key int64, v float64) {
	for !w.maxq.empty() && w.maxq.back().val <= v {
		w.maxq.popBack()
	}
	w.maxq.push(wedgeEntry{key, v})
	for !w.minq.empty() && w.minq.back().val >= v {
		w.minq.popBack()
	}
	w.minq.push(wedgeEntry{key, v})
}

// EvictBefore drops every entry whose key is strictly less than from.
func (w *MonotonicWedge) EvictBefore(from int64) {
	for !w.maxq.empty() && w.maxq.front().key < from {
		w.maxq.popFront()
	}
	for !w.minq.empty() && w.minq.front().key < from {
		w.minq.popFront()
	}
}

// Empty reports whether the window holds no values.
func (w *MonotonicWedge) Empty() bool { return w.maxq.empty() }

// Max returns the window maximum; the window must be non-empty.
func (w *MonotonicWedge) Max() float64 { return w.maxq.front().val }

// Min returns the window minimum; the window must be non-empty.
func (w *MonotonicWedge) Min() float64 { return w.minq.front().val }

// Reset empties the wedge, keeping its storage.
func (w *MonotonicWedge) Reset() {
	w.maxq.reset()
	w.minq.reset()
}

// rangeSignal monitors the spread (max−min) of one attribute over a
// sliding time window. It is a §5.3 domain-specific candidate-computation
// signal: a delta-compression filter over it reacts to volatility changes
// rather than level changes (build one with NewDCSignal). The window scan
// uses the monotonic wedge, so each tuple costs amortized O(1) with no
// steady-state allocation.
type rangeSignal struct {
	attr   string
	window time.Duration
	idx    int
	bound  bool
	wedge  MonotonicWedge
}

// NewRangeSignal monitors the max−min spread of attr over the trailing
// time window (window must be positive).
func NewRangeSignal(attr string, window time.Duration) (Signal, error) {
	if attr == "" {
		return nil, fmt.Errorf("filter: range signal needs an attribute")
	}
	if window <= 0 {
		return nil, fmt.Errorf("filter: range signal window must be positive, got %v", window)
	}
	return &rangeSignal{attr: attr, window: window}, nil
}

func (s *rangeSignal) Value(t *tuple.Tuple) (float64, error) {
	if !s.bound {
		i, err := t.Schema().Index(s.attr)
		if err != nil {
			return 0, fmt.Errorf("filter: binding signal: %w", err)
		}
		s.idx, s.bound = i, true
	}
	ts := t.TS.UnixNano()
	s.wedge.Push(ts, t.ValueAt(s.idx))
	s.wedge.EvictBefore(ts - int64(s.window))
	return s.wedge.Max() - s.wedge.Min(), nil
}

func (s *rangeSignal) Reset() {
	s.bound = false
	s.wedge.Reset()
}

func (s *rangeSignal) String() string {
	return fmt.Sprintf("range(%s, %v)", s.attr, s.window)
}
