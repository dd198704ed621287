package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram layout: power-of-two nanosecond buckets starting at
// 2^minShift ns (1.024µs). Bucket 0 holds everything at or below the
// first bound; the final bucket is the +Inf overflow. 26 finite bounds
// reach 2^35 ns ≈ 34s, past any sane stage duration.
const (
	histMinShift = 10
	histFinite   = 26
	histBuckets  = histFinite + 1
)

// Histogram is a fixed-bucket log-scale duration histogram. Observe is
// alloc-free and lock-free; buckets are independent atomic words, so a
// concurrent snapshot is only torn across buckets, never within one.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// bucketOf maps a nanosecond duration to its bucket index: finite
// bucket i covers (2^(minShift+i-1), 2^(minShift+i)] ns with bucket 0
// absorbing everything at or below 2^minShift.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns-1)) - histMinShift
	if b < 0 {
		return 0
	}
	if b >= histFinite {
		return histFinite // +Inf overflow bucket
	}
	return b
}

// BucketBound returns the inclusive upper bound of finite bucket i in
// seconds (Prometheus `le` convention). i must be < histFinite.
func BucketBound(i int) float64 {
	return float64(uint64(1)<<(histMinShift+i)) / 1e9
}

// NumBuckets returns the finite bucket count (the exposition adds +Inf).
func NumBuckets() int { return histFinite }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	if ns > 0 {
		h.sum.Add(ns)
	}
}

// HistogramSnapshot is a point-in-time read with cumulative counts in
// Prometheus order: Cumulative[i] counts samples ≤ BucketBound(i), and
// Count is the +Inf total.
type HistogramSnapshot struct {
	Cumulative [histFinite]uint64 `json:"cumulative"`
	Count      uint64             `json:"count"`
	SumSeconds float64            `json:"sum_seconds"`
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var run uint64
	for i := 0; i < histFinite; i++ {
		run += h.buckets[i].Load()
		s.Cumulative[i] = run
	}
	s.Count = run + h.buckets[histBuckets-1].Load()
	s.SumSeconds = float64(h.sum.Load()) / 1e9
	return s
}

// LatencyBatch accumulates one goroutine's delivery latencies between
// folds into shared LatencyHist views, in the Histogram's bucket layout
// plus the exact count, sum, min and max. It is plain memory: the
// goroutine that owns it observes and folds, nobody else touches it. The
// zero value is empty.
type LatencyBatch struct {
	buckets  [histBuckets]uint64
	count    uint64
	sum      int64
	min, max int64
}

// Observe records one sample (a negative duration counts as 0).
func (b *LatencyBatch) Observe(d time.Duration) { b.ObserveN(d, 1) }

// ObserveN records n samples of the same duration: one transmission
// delivered to n members at one instant.
func (b *LatencyBatch) ObserveN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	ns := max(int64(d), 0)
	if b.count == 0 || ns < b.min {
		b.min = ns
	}
	if b.count == 0 || ns > b.max {
		b.max = ns
	}
	b.buckets[bucketOf(ns)] += uint64(n)
	b.count += uint64(n)
	b.sum += ns * int64(n)
}

// Count returns the samples recorded since the last Reset.
func (b *LatencyBatch) Count() uint64 { return b.count }

// Reset empties the batch.
func (b *LatencyBatch) Reset() { *b = LatencyBatch{} }

// LatencyHist is a shared delivery-latency view (a source group, a
// broker's aggregate, an edge's relay hop): the Histogram layout plus the
// observed min and max. Writers fold whole batches into it, so a batch of
// deliveries costs one atomic add per touched bucket, two for count and
// sum, and a compare-and-swap when it moves an extreme, however many
// goroutines share the view. Quantiles are read by interpolating inside
// the bucket that holds the target rank, clamped to [min, max]: the
// estimate always lies in the exact quantile's bucket, so above the first
// bound (1.024µs) its relative error is below the bucket's factor of two,
// and a constant stream reads exactly. The zero value is empty; a nil view
// is disabled telemetry: every method is nil-safe.
type LatencyHist struct {
	h Histogram
	// lo holds the minimum plus one (0 while empty), hi the maximum.
	lo, hi atomic.Int64
}

// Fold adds a batch to the view; the batch is left as it was.
func (l *LatencyHist) Fold(b *LatencyBatch) {
	if l == nil || b.count == 0 {
		return
	}
	// The extremes go first: a snapshot that reads these buckets then
	// reads extremes that cover them.
	for lo := l.lo.Load(); lo == 0 || b.min+1 < lo; lo = l.lo.Load() {
		if l.lo.CompareAndSwap(lo, b.min+1) {
			break
		}
	}
	for hi := l.hi.Load(); b.max > hi; hi = l.hi.Load() {
		if l.hi.CompareAndSwap(hi, b.max) {
			break
		}
	}
	for i, n := range b.buckets {
		if n != 0 {
			l.h.buckets[i].Add(n)
		}
	}
	l.h.count.Add(b.count)
	l.h.sum.Add(b.sum)
}

// Observe folds a single sample, for callers that see one at a time.
func (l *LatencyHist) Observe(d time.Duration) {
	var b LatencyBatch
	b.Observe(d)
	l.Fold(&b)
}

// Snapshot reads the view. A snapshot racing a fold may see part of it;
// the quantiles are computed from the bucket counts it read, so they stay
// consistent with each other.
func (l *LatencyHist) Snapshot() LatencySnapshot {
	if l == nil {
		return LatencySnapshot{}
	}
	var counts [histBuckets]uint64
	var n uint64
	for i := range counts {
		counts[i] = l.h.buckets[i].Load()
		n += counts[i]
	}
	lo, hi := l.lo.Load()-1, l.hi.Load()
	return LatencySnapshot{
		P50:        time.Duration(quantileOf(&counts, n, lo, hi, 0.5)),
		P99:        time.Duration(quantileOf(&counts, n, lo, hi, 0.99)),
		Count:      l.h.count.Load(),
		SumSeconds: float64(l.h.sum.Load()) / 1e9,
	}
}

// quantileOf interpolates the q-quantile of n samples bucketed as counts
// whose extremes are lo and hi. The target is the nearest-rank sample,
// k = ⌈q·n⌉; inside its bucket, of bounds (b0, b1] narrowed to [lo, hi],
// the estimate sits the fraction of the bucket's samples up to rank k
// of the way from the bucket's bottom to its top.
func quantileOf(counts *[histBuckets]uint64, n uint64, lo, hi int64, q float64) int64 {
	if n == 0 || lo < 0 || hi < lo {
		return 0
	}
	k := max(uint64(math.Ceil(q*float64(n))), 1)
	var below uint64
	for i, c := range counts {
		if c == 0 || below+c < k {
			below += c
			continue
		}
		b0, b1 := int64(0), hi
		if i > 0 {
			b0 = int64(1) << (histMinShift + i - 1)
		}
		if i < histFinite {
			b1 = int64(1) << (histMinShift + i)
		}
		b0, b1 = max(b0, lo), min(b1, hi)
		if b1 <= b0 {
			return b1
		}
		frac := float64(k-below) / float64(c)
		return min(b0+int64(math.Ceil(frac*float64(b1-b0))), b1)
	}
	return hi
}
