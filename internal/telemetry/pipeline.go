package telemetry

import (
	"sync/atomic"
	"time"
)

// Stage enumerates the instrumented hot-path stages, in pipeline order.
type Stage int

const (
	// StageIngestDecode times wire decode of one inbound tuple frame.
	StageIngestDecode Stage = iota
	// StageRingWait times residency in a shard ring: submit to pop.
	StageRingWait
	// StageEngineStep times one engine Step call.
	StageEngineStep
	// StageFanout times one sink fan-out cycle: encode + enqueue to
	// every subscriber of the batch.
	StageFanout
	// StageEgressWrite times one vectored egress write to a
	// subscriber connection.
	StageEgressWrite

	numStages
)

var stageNames = [numStages]string{
	StageIngestDecode: "ingest_decode",
	StageRingWait:     "ring_wait",
	StageEngineStep:   "engine_step",
	StageFanout:       "fanout_enqueue",
	StageEgressWrite:  "egress_write",
}

// Name returns the Prometheus label value for the stage.
func (s Stage) Name() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages returns all instrumented stages in pipeline order.
func Stages() []Stage {
	return []Stage{StageIngestDecode, StageRingWait, StageEngineStep, StageFanout, StageEgressWrite}
}

// DefaultSampleEvery is the default sampling period: one in every 64
// events per stage pays the two clock reads; the rest pay one atomic
// increment on the gate counter.
const DefaultSampleEvery = 64

// Pipeline carries the stage histograms, their sampling gates, and the
// aggregate delivery-latency view for one broker instance. A nil
// *Pipeline disables instrumentation: every method is nil-safe.
type Pipeline struct {
	mask     uint64
	every    int
	gates    [numStages]atomic.Uint64
	hists    [numStages]Histogram
	delivery LatencyHist
}

// New builds a pipeline sampling one in every sampleEvery events per
// stage (rounded up to a power of two; 0 means DefaultSampleEvery).
// Delivery latency is not sampled: every delivery is counted, but the
// delivery paths fold it in batches (Delivery().Fold), one per egress
// write or sink call, so the view shared by every delivering goroutine
// is written once per batch, not once per delivery.
func New(sampleEvery int) *Pipeline {
	if sampleEvery <= 0 {
		sampleEvery = DefaultSampleEvery
	}
	period := 1
	for period < sampleEvery {
		period <<= 1
	}
	return &Pipeline{mask: uint64(period - 1), every: period}
}

// SampleEvery returns the effective sampling period.
func (p *Pipeline) SampleEvery() int {
	if p == nil {
		return 0
	}
	return p.every
}

// Sample reports whether this event should be timed: true once per
// sampling period per stage. Alloc-free; one atomic add.
func (p *Pipeline) Sample(s Stage) bool {
	if p == nil {
		return false
	}
	return p.gates[s].Add(1)&p.mask == 0
}

// Observe records a sampled stage duration.
func (p *Pipeline) Observe(s Stage, d time.Duration) {
	if p == nil {
		return
	}
	p.hists[s].Observe(d)
}

// ObserveDelivery feeds one end-to-end delivery latency sample into the
// aggregate view, for a caller that sees one at a time.
func (p *Pipeline) ObserveDelivery(d time.Duration) {
	if p == nil {
		return
	}
	p.delivery.Observe(d)
}

// Delivery returns the aggregate delivery-latency view (nil when
// disabled).
func (p *Pipeline) Delivery() *LatencyHist {
	if p == nil {
		return nil
	}
	return &p.delivery
}

// StageSnapshot is a point-in-time read of one stage histogram.
type StageSnapshot struct {
	Stage string            `json:"stage"`
	Hist  HistogramSnapshot `json:"histogram"`
}

// Snapshot is a full point-in-time read of a Pipeline, JSON-ready for
// the /debug/gasf introspection endpoint.
type Snapshot struct {
	SampleEvery int             `json:"sample_every"`
	Delivery    LatencySnapshot `json:"delivery_latency"`
	Stages      []StageSnapshot `json:"stages"`
}

// Snapshot reads the pipeline. Returns a zero Snapshot when disabled.
func (p *Pipeline) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	s := Snapshot{SampleEvery: p.every, Delivery: p.delivery.Snapshot()}
	for _, st := range Stages() {
		s.Stages = append(s.Stages, StageSnapshot{Stage: st.Name(), Hist: p.hists[st].Snapshot()})
	}
	return s
}

// StageHist exposes the histogram for one stage for exposition.
func (p *Pipeline) StageHist(s Stage) *Histogram {
	if p == nil {
		return nil
	}
	return &p.hists[s]
}
