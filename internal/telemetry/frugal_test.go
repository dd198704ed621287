package telemetry

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gasf/internal/metrics"
)

// rankBand is the documented accuracy contract for the frugal
// estimators: after a long stream, the estimate — time-averaged over
// the last quarter of the stream, since a one-word stochastic estimator
// oscillates around its target — must land between the exact
// (q-rankBand) and (q+rankBand) sample quantiles. Checking rank rather
// than absolute distance makes the bound meaningful across
// distributions with very different scales and tail weights (a p99
// estimate of a Pareto stream can be absolutely far from exact while
// still ranking within a fraction of a percent of the target).
const rankBand = 0.05

// distributions the property test sweeps: uniform, heavy-tailed Pareto,
// and a bimodal mixture with a wide gap between the modes.
var testDistributions = []struct {
	name string
	gen  func(r *rand.Rand) int64
}{
	{"uniform", func(r *rand.Rand) int64 {
		return int64(r.Intn(1_000_000)) + 1
	}},
	{"pareto", func(r *rand.Rand) int64 {
		// alpha=1.5, xm=1000: heavy tail, p99 far above p50.
		u := r.Float64()
		if u == 0 {
			u = 1e-12
		}
		v := 1000 * math.Pow(u, -1/1.5)
		if v > 1e12 {
			v = 1e12
		}
		return int64(v)
	}},
	{"bimodal", func(r *rand.Rand) int64 {
		if r.Intn(2) == 0 {
			return 1_000 + int64(r.Intn(100))
		}
		return 10_000_000 + int64(r.Intn(100_000))
	}},
}

// TestQuantileAccuracy is the estimator property test: on three stream
// shapes, the frugal p50 and p99 estimates rank within rankBand of the
// exact sample quantiles computed by metrics.Quantile.
func TestQuantileAccuracy(t *testing.T) {
	const n = 400_000
	for _, dist := range testDistributions {
		for _, q := range []float64{0.5, 0.99} {
			r := rand.New(rand.NewSource(7))
			e := NewQuantile(q)
			xs := make([]float64, 0, n)
			var tail float64
			var tailN int
			for i := 0; i < n; i++ {
				v := dist.gen(r)
				e.Observe(v)
				xs = append(xs, float64(v))
				if i >= n*3/4 {
					tail += float64(e.Estimate())
					tailN++
				}
			}
			est := tail / float64(tailN)
			lo := metrics.Quantile(xs, q-rankBand)
			hi := metrics.Quantile(xs, math.Min(q+rankBand, 1))
			if est < lo || est > hi {
				exact := metrics.Quantile(xs, q)
				t.Errorf("%s q=%v: tail-averaged estimate %.0f outside rank band [%.0f, %.0f] (exact %.0f)",
					dist.name, q, est, lo, hi, exact)
			}
		}
	}
}

// TestFrugal1UAccuracy checks the one-memory baseline on the one stream
// shape it is suited to: a small value range relative to stream length.
func TestFrugal1UAccuracy(t *testing.T) {
	const n = 200_000
	r := rand.New(rand.NewSource(3))
	e := NewFrugal1U(0.5)
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := int64(r.Intn(1000))
		e.Observe(v)
		xs = append(xs, float64(v))
	}
	est := float64(e.Estimate())
	lo := metrics.Quantile(xs, 0.5-rankBand)
	hi := metrics.Quantile(xs, 0.5+rankBand)
	if est < lo || est > hi {
		t.Errorf("1U median estimate %.0f outside rank band [%.0f, %.0f]", est, lo, hi)
	}
}

// TestQuantileRange pins the clamp invariant deterministically: the
// estimate never leaves the closed range of observed values.
func TestQuantileRange(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	e := NewQuantile(0.9)
	min, max := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < 50_000; i++ {
		// Wild swings exercise the overshoot clamps.
		v := int64(r.Intn(3)) * int64(r.Intn(1_000_000_000))
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		e.Observe(v)
		if got := e.Estimate(); got < min || got > max {
			t.Fatalf("after %d samples estimate %d left observed range [%d, %d]", i+1, got, min, max)
		}
	}
}

// TestQuantileOneWriterConcurrentReaders holds the single-writer
// contract: one goroutine observes while others read the estimates and
// snapshot the pair, with no data race (under -race), and every estimate
// a reader sees lies inside the range the writer draws from.
func TestQuantileOneWriterConcurrentReaders(t *testing.T) {
	l := NewLatencyPair()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := l.Snapshot()
				for _, e := range []time.Duration{s.P50, s.P99} {
					if e < 0 || e > time.Millisecond {
						t.Errorf("reader saw estimate %v outside [0, 1ms]", e)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(1))
	const n = 80_000
	for i := 0; i < n; i++ {
		l.Observe(time.Duration(r.Intn(1_000_000)))
	}
	close(done)
	wg.Wait()
	if s := l.Snapshot(); s.Count != n {
		t.Fatalf("count %d after %d observations", s.Count, n)
	}
}

// TestLatencyPair covers the bundled pair: nil-safety, negative clamp,
// count/sum accounting, and both quantile targets.
func TestLatencyPair(t *testing.T) {
	var nilPair *LatencyPair
	nilPair.Observe(time.Second) // must not panic
	if s := nilPair.Snapshot(); s.Count != 0 {
		t.Fatalf("nil pair snapshot count %d", s.Count)
	}

	l := NewLatencyPair()
	l.Observe(-time.Second) // clamps to 0
	for i := 1; i <= 1000; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	s := l.Snapshot()
	if s.Count != 1001 {
		t.Fatalf("count %d, want 1001", s.Count)
	}
	wantSum := float64(1000*1001/2) * 1e-3 // sum of 1..1000 ms in seconds
	if math.Abs(s.SumSeconds-wantSum) > 1e-9 {
		t.Fatalf("sum %.6fs, want %.6fs", s.SumSeconds, wantSum)
	}
	if s.P50 <= 0 || s.P50 > time.Second {
		t.Fatalf("p50 %v outside observed range", s.P50)
	}
	if s.P99 < s.P50/2 {
		// The estimators are stochastic; p99 materially below p50 on an
		// increasing ramp means the pair is wired to the wrong targets.
		t.Fatalf("p99 %v implausibly below p50 %v", s.P99, s.P50)
	}
}

// TestNowSince checks the monotonic stamp helpers: stamps are positive
// (a zero stamp is the "unset" sentinel) and Since measures forward.
func TestNowSince(t *testing.T) {
	s := Now()
	if s <= 0 {
		t.Fatalf("Now() = %d, want > 0", s)
	}
	if d := Since(s); d < 0 {
		t.Fatalf("Since(Now()) = %v, want >= 0", d)
	}
}

// TestObserveAllocs pins the alloc-free contract of every observe-path
// entry point: estimator, pair, histogram, and the sampling gate.
func TestObserveAllocs(t *testing.T) {
	e := NewQuantile(0.5)
	l := NewLatencyPair()
	var h Histogram
	var b LatencyBatch
	p := New(1)
	checks := []struct {
		name string
		f    func()
	}{
		{"Quantile.Observe", func() { e.Observe(12345) }},
		{"LatencyPair.Observe", func() { l.Observe(12345) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"Pipeline.Sample", func() { p.Sample(StageEngineStep) }},
		{"Pipeline.Observe", func() { p.Observe(StageEngineStep, 12345) }},
		{"Pipeline.ObserveDelivery", func() { p.ObserveDelivery(12345) }},
		{"LatencyBatch.Observe", func() { b.Observe(12345) }},
		{"LatencyHist.Fold", func() { p.Delivery().Fold(&b) }},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(1000, c.f); avg != 0 {
			t.Errorf("%s allocates %.2f allocs/op, want 0", c.name, avg)
		}
	}
}

// FuzzQuantileObserve fuzzes arbitrary sample sequences into both
// estimator variants and enforces the range invariant: the estimate
// never leaves [min, max] of the observed values.
func FuzzQuantileObserve(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	seed := make([]byte, 0, 64)
	for _, v := range []uint64{1, math.MaxInt64, 42, 0, 1 << 40, 7, 7, 1} {
		seed = binary.LittleEndian.AppendUint64(seed, v)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		e2 := NewQuantile(0.9)
		e1 := NewFrugal1U(0.9)
		min, max := int64(math.MaxInt64), int64(math.MinInt64)
		for len(data) >= 8 {
			v := int64(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			e2.Observe(v)
			e1.Observe(v)
			if got := e2.Estimate(); got < min || got > max {
				t.Fatalf("2U estimate %d left observed range [%d, %d]", got, min, max)
			}
			if got := e1.Estimate(); got < min || got > max {
				t.Fatalf("1U estimate %d left observed range [%d, %d]", got, min, max)
			}
		}
	})
}
