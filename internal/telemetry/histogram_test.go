package telemetry

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log2 bucket layout: bucket i covers
// (2^(9+i), 2^(10+i)] nanoseconds, with everything at or below 1.024µs
// in bucket 0 and everything above the top finite bound in overflow.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0},
		{0, 0},
		{1, 0},
		{1024, 0},                    // top of bucket 0
		{1025, 1},                    // bottom of bucket 1
		{2048, 1},                    // top of bucket 1
		{2049, 2},                    //
		{1 << 35, histFinite - 1},    // top finite bucket bound
		{1<<35 + 1, histFinite},      // overflow
		{int64(1) << 62, histFinite}, // deep overflow
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every finite bucket's upper bound must land in that bucket, and
	// one nanosecond more in the next.
	for i := 0; i < histFinite; i++ {
		bound := int64(1) << (histMinShift + i)
		if got := bucketOf(bound); got != i {
			t.Errorf("bucketOf(2^%d) = %d, want %d", histMinShift+i, got, i)
		}
		if got := bucketOf(bound + 1); got != i+1 {
			t.Errorf("bucketOf(2^%d+1) = %d, want %d", histMinShift+i, got, i+1)
		}
	}
}

// TestHistogramSnapshot checks the cumulative snapshot: counts
// accumulate across buckets, the total matches, and the sum is in
// seconds.
func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(2 * time.Microsecond)  // bucket 1
	h.Observe(100 * time.Second)     // overflow
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count %d, want 3", s.Count)
	}
	if s.Cumulative[0] != 1 {
		t.Fatalf("cumulative[0] = %d, want 1", s.Cumulative[0])
	}
	if s.Cumulative[1] != 2 {
		t.Fatalf("cumulative[1] = %d, want 2", s.Cumulative[1])
	}
	if last := s.Cumulative[histFinite-1]; last != 2 {
		t.Fatalf("top finite cumulative %d, want 2 (overflow only in +Inf)", last)
	}
	want := (500*time.Nanosecond + 2*time.Microsecond + 100*time.Second).Seconds()
	if diff := s.SumSeconds - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sum %.9fs, want %.9fs", s.SumSeconds, want)
	}
	for i := 1; i < histFinite; i++ {
		if s.Cumulative[i] < s.Cumulative[i-1] {
			t.Fatalf("cumulative counts not monotone at bucket %d", i)
		}
	}
}

// TestBucketBound checks the exposition bounds are increasing seconds.
func TestBucketBound(t *testing.T) {
	if got := BucketBound(0); got != 1024e-9 {
		t.Fatalf("BucketBound(0) = %v, want 1.024e-6", got)
	}
	prev := 0.0
	for i := 0; i < histFinite; i++ {
		b := BucketBound(i)
		if b <= prev {
			t.Fatalf("BucketBound(%d) = %v not increasing past %v", i, b, prev)
		}
		prev = b
	}
}

// TestPipelineSampling covers the gate: period rounding to a power of
// two, one sample per period per stage, and nil-safety everywhere.
func TestPipelineSampling(t *testing.T) {
	p := New(48) // rounds up to 64
	if got := p.SampleEvery(); got != 64 {
		t.Fatalf("SampleEvery() = %d, want 64", got)
	}
	hits := 0
	for i := 0; i < 640; i++ {
		if p.Sample(StageFanout) {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("%d samples in 640 events at period 64, want 10", hits)
	}
	// Gates are per-stage: another stage starts its own period.
	p2 := New(4)
	for i := 0; i < 3; i++ {
		p2.Sample(StageEgressWrite)
	}
	if !p2.Sample(StageEgressWrite) {
		t.Fatal("4th event at period 4 not sampled")
	}
	if p2.Sample(StageIngestDecode) {
		t.Fatal("fresh stage gate sampled its first event")
	}

	var nilP *Pipeline
	if nilP.Sample(StageFanout) {
		t.Fatal("nil pipeline sampled")
	}
	nilP.Observe(StageFanout, time.Second)
	nilP.ObserveDelivery(time.Second)
	if nilP.Delivery() != nil {
		t.Fatal("nil pipeline returned a delivery pair")
	}
	if s := nilP.Snapshot(); s.SampleEvery != 0 || len(s.Stages) != 0 {
		t.Fatal("nil pipeline snapshot not zero")
	}
	if nilP.SampleEvery() != 0 {
		t.Fatal("nil pipeline has a sampling period")
	}
}

// TestPipelineSnapshot checks the JSON-ready snapshot covers every
// stage in pipeline order with its observations.
func TestPipelineSnapshot(t *testing.T) {
	p := New(1)
	p.Observe(StageEngineStep, 5*time.Microsecond)
	p.ObserveDelivery(3 * time.Millisecond)
	s := p.Snapshot()
	if s.SampleEvery != 1 {
		t.Fatalf("snapshot period %d, want 1", s.SampleEvery)
	}
	if len(s.Stages) != len(Stages()) {
		t.Fatalf("%d stages in snapshot, want %d", len(s.Stages), len(Stages()))
	}
	for i, st := range Stages() {
		if s.Stages[i].Stage != st.Name() {
			t.Fatalf("stage %d is %q, want %q", i, s.Stages[i].Stage, st.Name())
		}
	}
	if s.Stages[int(StageEngineStep)].Hist.Count != 1 {
		t.Fatal("engine_step observation missing from snapshot")
	}
	if s.Delivery.Count != 1 || s.Delivery.P50 != 3*time.Millisecond {
		t.Fatalf("delivery snapshot %+v, want one 3ms sample", s.Delivery)
	}
}

// histStreams are the deterministic streams the shared latency view is
// checked on (nanoseconds): uniform over three decades, log-normal around
// 200µs, two modes four decades apart, and a constant.
var histStreams = []struct {
	name string
	gen  func(r *rand.Rand) int64
}{
	{"uniform", func(r *rand.Rand) int64 { return 1_000 + r.Int63n(1_000_000) }},
	{"lognormal", func(r *rand.Rand) int64 { return int64(math.Exp(math.Log(200_000) + r.NormFloat64())) }},
	{"bimodal", func(r *rand.Rand) int64 {
		if r.Intn(2) == 0 {
			return 2_000 + r.Int63n(500)
		}
		return 20_000_000 + r.Int63n(5_000_000)
	}},
	{"constant", func(*rand.Rand) int64 { return 3_000_000 }},
}

// TestLatencyHistAccuracy checks the interpolated quantiles against the
// exact ones: on every stream, p50 and p99 lie in the bucket of the exact
// nearest-rank quantile and inside [min, max]. Samples are folded in
// batches of varying size, as the delivery paths fold them; count and sum
// stay exact. The worst relative error per stream is logged (DESIGN.md
// records it).
func TestLatencyHistAccuracy(t *testing.T) {
	const n = 200_000
	for _, st := range histStreams {
		r := rand.New(rand.NewSource(7))
		h := new(LatencyHist)
		var b LatencyBatch
		xs := make([]int64, 0, n)
		var sum int64
		for len(xs) < n {
			for k := 1 + r.Intn(64); k > 0 && len(xs) < n; k-- {
				v := st.gen(r)
				xs = append(xs, v)
				sum += v
				b.Observe(time.Duration(v))
			}
			h.Fold(&b)
			b.Reset()
		}
		slices.Sort(xs)
		s := h.Snapshot()
		if s.Count != n || s.SumSeconds != float64(sum)/1e9 {
			t.Fatalf("%s: count %d sum %v, want %d and %v", st.name, s.Count, s.SumSeconds, n, float64(sum)/1e9)
		}
		worst := 0.0
		for _, q := range []struct {
			q   float64
			got time.Duration
		}{{0.5, s.P50}, {0.99, s.P99}} {
			exact := xs[int(math.Ceil(q.q*n))-1]
			got := int64(q.got)
			if bucketOf(got) != bucketOf(exact) {
				t.Errorf("%s p%v: %d in bucket %d, exact %d in bucket %d", st.name, q.q*100, got, bucketOf(got), exact, bucketOf(exact))
			}
			if got < xs[0] || got > xs[n-1] {
				t.Errorf("%s p%v: %d outside [%d, %d]", st.name, q.q*100, got, xs[0], xs[n-1])
			}
			worst = math.Max(worst, math.Abs(float64(got-exact))/float64(exact))
		}
		t.Logf("%-9s worst relative error %.3f", st.name, worst)
	}
}

// TestLatencyHistOneSample pins the clamp: one sample reads exactly,
// whatever its bucket, and an empty view reads zero.
func TestLatencyHistOneSample(t *testing.T) {
	var nilHist *LatencyHist
	nilHist.Observe(time.Second) // must not panic
	if s := nilHist.Snapshot(); s != (LatencySnapshot{}) {
		t.Fatalf("nil view snapshot %+v", s)
	}
	if s := new(LatencyHist).Snapshot(); s != (LatencySnapshot{}) {
		t.Fatalf("empty view snapshot %+v", s)
	}
	for _, d := range []time.Duration{0, 700, 3 * time.Millisecond, time.Hour} {
		h := new(LatencyHist)
		h.Observe(d)
		if s := h.Snapshot(); s.P50 != d || s.P99 != d || s.Count != 1 {
			t.Errorf("one %v sample reads %+v", d, s)
		}
	}
}

// FuzzLatencyHist folds arbitrary samples in arbitrary batch sizes: the
// estimates stay inside [min, max] of what was folded, and count and sum
// stay exact.
func FuzzLatencyHist(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1})
	seed := []byte{3}
	for _, v := range []uint64{1, 1 << 40, 42, 0, 1 << 62, 7, 7, 1} {
		seed = binary.LittleEndian.AppendUint64(seed, v)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := new(LatencyHist)
		var b LatencyBatch
		var count uint64
		var sum int64
		lo, hi := int64(math.MaxInt64), int64(0)
		for len(data) >= 9 {
			// A leading byte sizes the batch; samples are kept below
			// 2^50 ns so that the exact sum cannot wrap.
			k := int(data[0]%8) + 1
			data = data[1:]
			for ; k > 0 && len(data) >= 8; k-- {
				v := int64(binary.LittleEndian.Uint64(data[:8]) & (1<<50 - 1))
				data = data[8:]
				b.Observe(time.Duration(v))
				count++
				sum += v
				lo, hi = min(lo, v), max(hi, v)
			}
			h.Fold(&b)
			b.Reset()
			s := h.Snapshot()
			if s.Count != count || s.SumSeconds != float64(sum)/1e9 {
				t.Fatalf("count %d sum %v, want %d and %v", s.Count, s.SumSeconds, count, float64(sum)/1e9)
			}
			for _, e := range []time.Duration{s.P50, s.P99} {
				if int64(e) < lo || int64(e) > hi {
					t.Fatalf("estimate %d outside observed [%d, %d]", e, lo, hi)
				}
			}
		}
	})
}
