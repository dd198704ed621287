// Package telemetry provides the broker's low-cost observability layer:
// frugal-streaming quantile estimators (one machine word of state per
// quantile) for per-session latency, log2-bucket histograms for the
// shared latency views and the stage timings, and per-stage sampling
// gates that bound the steady-state cost of timing the hot path.
// Everything here is alloc-free on the observe path. The frugal
// estimators have one writer each; the histograms take concurrent
// writers, which fold whole batches rather than single samples.
package telemetry

import (
	"sync/atomic"
	"time"
)

// base anchors stage timestamps to the process monotonic clock, so ring
// residency survives wall-clock steps. Stamp with Now, measure with
// Since.
var base = time.Now()

// Now returns a monotonic nanosecond stamp suitable for storing in a
// single int64 word (e.g. inside a ring cell). Always > 0.
func Now() int64 { return int64(time.Since(base)) + 1 }

// Since converts a stamp from Now into the elapsed duration.
func Since(stamp int64) time.Duration { return time.Since(base) - time.Duration(stamp-1) }

// Quantile is a Frugal-2U streaming quantile estimator ("Frugal
// Streaming for Estimating Quantiles", Ma/Muthukrishnan/Sandler 2014).
// It keeps one word for the running estimate plus one word of adaptive
// step state, updates in O(1) with no allocation, and converges to the
// target quantile of the stream distribution.
//
// A Quantile has one writer: Observe must not run on two goroutines at
// once. Only the estimate is an atomic word, so Estimate may be called
// from any goroutine while the writer observes; the step state is the
// writer's plain memory.
//
// The estimate is seeded with the first observed sample and every
// subsequent move is clamped to the triggering sample, so the estimate
// never leaves the closed range of observed values — the invariant the
// fuzz test enforces.
type Quantile struct {
	q      float64
	thresh uint64 // q scaled to [0, 2^64): move-up probability
	seeded bool
	step   int64
	sign   int64
	rng    uint64
	est    atomic.Int64
}

// NewQuantile returns an estimator targeting quantile q in (0, 1).
func NewQuantile(q float64) *Quantile {
	e := &Quantile{}
	e.init(q)
	return e
}

func (e *Quantile) init(q float64) {
	if q <= 0 {
		q = 0.001
	}
	if q >= 1 {
		q = 0.999
	}
	e.q = q
	e.thresh = uint64(q * float64(1<<63) * 2)
	e.rng = 0x9e3779b97f4a7c15
}

// rand draws a xorshift64* variate.
func (e *Quantile) rand() uint64 {
	e.rng ^= e.rng << 13
	e.rng ^= e.rng >> 7
	e.rng ^= e.rng << 17
	return e.rng * 0x2545f4914f6cdd1d
}

// rampDelay is how many consecutive same-direction moves travel at unit
// size before the geometric ramp engages. Near the stationary point,
// move directions alternate frequently, runs stay short, and the
// estimator behaves like the paper's unit-step form — whose balance of
// move probabilities (q up, 1-q down) pins the stationary rank at the
// target quantile. Only a sustained one-sided run — the signature of a
// distant target or a distribution shift — unlocks doubling, so wide
// value ranges (nanoseconds to seconds) are crossed in logarithmically
// many moves without biasing the steady state.
const rampDelay = 6

// stepSize maps a same-direction run length to a move size: unit moves
// for short runs, then powers of two, capped well below the int64 range
// so the estimate cannot wrap.
func stepSize(run int64) int64 {
	if run <= rampDelay {
		return 1
	}
	sh := run - rampDelay
	if sh > 60 {
		sh = 60
	}
	return int64(1) << sh
}

// Observe feeds one sample; writer only. Alloc-free; at most one atomic
// store, when the estimate moves. The update is the paper's Frugal-2U
// with a delayed-geometric f (see rampDelay): the step word holds the
// current same-direction run length, a direction reversal resets it, and
// an overshoot clamps the estimate to the triggering sample and resets
// the run so a jump into a heavy tail cannot keep compounding.
func (e *Quantile) Observe(v int64) {
	if !e.seeded {
		e.seeded, e.step, e.sign = true, 1, 1
		e.est.Store(v)
		return
	}
	m := e.est.Load()
	if v == m {
		return
	}
	r := e.rand()
	var nm int64
	if v > m {
		if r >= e.thresh {
			// Move up only with probability q.
			return
		}
		run := int64(1) // reversal: settle back to unit steps
		if e.sign > 0 {
			run = e.step + 1 // same direction: extend the run
		}
		nm = m + stepSize(run)
		if nm > v || nm < m { // overshoot (or wrap): clamp to sample
			nm, run = v, 1
		}
		e.step, e.sign = run, 1
	} else {
		// v < m: move down only with probability 1-q.
		if r < e.thresh {
			return
		}
		run := int64(1)
		if e.sign < 0 {
			run = e.step + 1
		}
		nm = m - stepSize(run)
		if nm < v || nm > m { // overshoot below (or wrap): clamp to sample
			nm, run = v, 1
		}
		e.step, e.sign = run, -1
	}
	e.est.Store(nm)
}

// Estimate returns the current quantile estimate (0 before any sample).
func (e *Quantile) Estimate() int64 { return e.est.Load() }

// Target returns the quantile this estimator tracks.
func (e *Quantile) Target() float64 { return e.q }

// Frugal1U is the one-memory variant from the same paper: a single
// word of state, ±1 moves. It needs streams whose value range is small
// relative to the stream length to converge, so the broker uses the 2U
// form for nanosecond latencies; 1U is kept as the reference baseline
// the property tests compare against. Like Quantile it has one writer.
type Frugal1U struct {
	thresh uint64
	seeded bool
	rng    uint64
	est    atomic.Int64
}

// NewFrugal1U returns a one-memory estimator targeting quantile q.
func NewFrugal1U(q float64) *Frugal1U {
	if q <= 0 {
		q = 0.001
	}
	if q >= 1 {
		q = 0.999
	}
	return &Frugal1U{thresh: uint64(q * float64(1<<63) * 2), rng: 0x853c49e6748fea9b}
}

// Observe feeds one sample; writer only.
func (e *Frugal1U) Observe(v int64) {
	if !e.seeded {
		e.seeded = true
		e.est.Store(v)
		return
	}
	e.rng ^= e.rng << 13
	e.rng ^= e.rng >> 7
	e.rng ^= e.rng << 17
	r := e.rng * 0x2545f4914f6cdd1d
	m := e.est.Load()
	if v > m && r < e.thresh {
		e.est.Store(m + 1)
	} else if v < m && r >= e.thresh {
		e.est.Store(m - 1)
	}
}

// Estimate returns the current estimate.
func (e *Frugal1U) Estimate() int64 { return e.est.Load() }

// LatencyPair is one session's delivery-latency estimate: Frugal-2U
// p50 and p99 — one word each, the point where one word per session
// matters — plus exact count and sum, so the pair can expose a complete
// Prometheus summary. A pair has one writer, the goroutine that delivers
// the session's stream; Snapshot may run on any goroutine beside it. The
// estimates, the count and the sum are atomic words only the writer
// stores to, so an Observe does no read-modify-write on shared memory.
type LatencyPair struct {
	p50   Quantile
	p99   Quantile
	count atomic.Uint64
	sum   atomic.Int64
}

// NewLatencyPair returns an initialized pair.
func NewLatencyPair() *LatencyPair {
	l := &LatencyPair{}
	l.p50.init(0.5)
	l.p99.init(0.99)
	return l
}

// Observe feeds one latency sample into both estimators; writer only.
// Alloc-free and nil-safe (a nil pair means telemetry is disabled).
func (l *LatencyPair) Observe(d time.Duration) {
	if l == nil {
		return
	}
	n := max(int64(d), 0)
	l.p50.Observe(n)
	l.p99.Observe(n)
	l.count.Store(l.count.Load() + 1)
	l.sum.Store(l.sum.Load() + n)
}

// LatencySnapshot is a point-in-time read of a latency view: p50 and p99
// (Frugal-2U estimates for a session's LatencyPair, bucket-interpolated
// for a shared LatencyHist) plus the exact sample count and sum.
type LatencySnapshot struct {
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	Count      uint64        `json:"count"`
	SumSeconds float64       `json:"sum_seconds"`
}

// Snapshot reads the pair (zero when nil).
func (l *LatencyPair) Snapshot() LatencySnapshot {
	if l == nil {
		return LatencySnapshot{}
	}
	return LatencySnapshot{
		P50:        time.Duration(l.p50.Estimate()),
		P99:        time.Duration(l.p99.Estimate()),
		Count:      l.count.Load(),
		SumSeconds: float64(l.sum.Load()) / 1e9,
	}
}
