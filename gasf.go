// Package gasf is the public API of the group-aware stream filtering
// library, a reproduction of "Group-Aware Stream Filtering" (Ming Li,
// Dartmouth College / ICDCS 2007).
//
// Group-aware stream filtering saves network bandwidth — the scarcest
// resource in multi-hop wireless mesh stream systems — by spending CPU
// time: when several applications subscribe to one source with approximate
// ("slack"-tolerant) quality requirements, each filter has many
// quality-equivalent candidate outputs, and coordinating the group to pick
// overlapping candidates minimizes the multiplexed multicast output.
//
// # Quickstart
//
// The primary surface is the context-first Broker (broker.go): one
// interface over an embedded in-process deployment and a networked one.
//
//	b, _ := gasf.NewEmbedded(gasf.WithShards(4))
//	src, _ := b.OpenSource(ctx, "buoy", schema)
//	sub, _ := b.Subscribe(ctx, "dashboard", "buoy", "DC1(temperature, 0.5, 0.25)")
//	go src.Publish(ctx, t)
//	d, _ := sub.Recv(ctx)
//
// Swap gasf.NewEmbedded for gasf.Dial("host:7070") and the same program
// drives a gasf-server over TCP. Finite batch runs keep the historical
// convenience wrappers, now layered on an embedded broker:
//
//	a, _ := gasf.NewDCFilter("A", "temperature", 50, 10)
//	b, _ := gasf.NewDCFilter("B", "temperature", 40, 5)
//	res, _ := gasf.Run([]gasf.Filter{a, b}, series, gasf.Options{Algorithm: gasf.RG})
//	fmt.Println(res.Stats.OIRatio())
//
// The facade re-exports the stable pieces of the internal packages: the
// tuple/stream model, the filter family (DC1/DC2/DC3, stratified sampling,
// stateful DC), the coordination engine with its algorithms (RG, PS),
// timely cuts and output strategies, and the trace generators used in
// the paper's evaluation. See DESIGN.md for the architecture (§7 covers
// the session core and its two transports, §10 the broker API) and
// EXPERIMENTS.md for the reproduction results.
package gasf

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/broker"
	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/quality"
	"gasf/internal/session"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// Re-exported data model types.
type (
	// Schema is an ordered set of attribute names for one source.
	Schema = tuple.Schema
	// Tuple is one timestamped stream item.
	Tuple = tuple.Tuple
	// Series is a finite, time-ordered tuple sequence.
	Series = tuple.Series
)

// Re-exported filter types.
type (
	// Filter is the group-aware filter contract (§2.2.2).
	Filter = filter.Filter
	// CandidateSet is a set of quality-equivalent output candidates.
	CandidateSet = filter.CandidateSet
	// Prescription selects Top/Bottom/Random output eligibility.
	Prescription = filter.Prescription
	// Signal derives the monitored scalar from a tuple.
	Signal = filter.Signal
)

// Re-exported engine types.
type (
	// Options configures the coordination engine.
	Options = core.Options
	// Algorithm selects RG or PS.
	Algorithm = core.Algorithm
	// OutputStrategy selects when decided outputs are released.
	OutputStrategy = core.OutputStrategy
	// Result carries the transmissions and statistics of a run.
	Result = core.Result
	// Stats aggregates the run's metrics.
	Stats = core.Stats
	// Transmission is one multicast send with destination labels.
	Transmission = core.Transmission
	// Punctuation marks a region boundary in the output stream (§3.4).
	Punctuation = core.Punctuation
	// Engine is the incremental (per-tuple) coordination interface.
	Engine = core.Engine
)

// Adaptive-control types (the future-work extensions of §3.1 and §4.8).
type (
	// DegradeConfig parameterizes the bandwidth-degradation controller.
	DegradeConfig = adapt.DegradeConfig
	// DegradeResult reports a degrading run and its scale trajectory.
	DegradeResult = adapt.DegradeResult
	// Scalable is implemented by filters whose granularity can be
	// degraded at run time (the DC family).
	Scalable = adapt.Scalable
)

// Re-exported quality-specification types.
type (
	// Spec is a parsed filter specification.
	Spec = quality.Spec
	// Group is a named set of specs subscribing to one source.
	Group = quality.Group
)

// Algorithm, strategy and prescription constants.
const (
	// RG is the region-based greedy algorithm (Fig 2.6).
	RG = core.RG
	// PS is the per-candidate-set greedy algorithm (Fig 2.10).
	PS = core.PS
	// EarliestRegion releases outputs when their region closes.
	EarliestRegion = core.EarliestRegion
	// PerCandidateSet releases outputs as soon as they are decided.
	PerCandidateSet = core.PerCandidateSet
	// Batched releases outputs every Options.BatchSize input tuples.
	Batched = core.Batched
	// Random, Top and Bottom are output-selection prescriptions.
	Random = filter.Random
	// Top restricts candidacy to the highest-valued tuples.
	Top = filter.Top
	// Bottom restricts candidacy to the lowest-valued tuples.
	Bottom = filter.Bottom
)

// NewSchema builds a schema from attribute names.
func NewSchema(names ...string) (*Schema, error) { return tuple.NewSchema(names...) }

// NewTuple creates a tuple bound to the schema.
func NewTuple(s *Schema, seq int, ts time.Time, values []float64) (*Tuple, error) {
	return tuple.New(s, seq, ts, values)
}

// NewSeries creates an empty series.
func NewSeries(s *Schema) *Series { return tuple.NewSeries(s) }

// NewDCFilter builds a single-attribute (slack, delta) delta-compression
// filter — the paper's canonical group-aware filter.
func NewDCFilter(id, attr string, delta, slack float64) (Filter, error) {
	return filter.NewDC1(id, attr, delta, slack)
}

// NewTrendFilter builds a DC2 trend delta-compression filter monitoring
// the change rate of attr per unit time.
func NewTrendFilter(id, attr string, delta, slack float64, unit time.Duration) (Filter, error) {
	return filter.NewDC2(id, attr, delta, slack, unit)
}

// NewAvgFilter builds a DC3 multi-attribute-average delta-compression
// filter.
func NewAvgFilter(id string, attrs []string, delta, slack float64) (Filter, error) {
	return filter.NewDC3(id, attrs, delta, slack)
}

// NewSamplingFilter builds a stratified-sampling filter: segments of the
// given interval are sampled at highPct (range >= threshold) or lowPct.
func NewSamplingFilter(id, attr string, interval time.Duration, threshold, highPct, lowPct float64, p Prescription) (Filter, error) {
	return filter.NewSS(id, attr, interval, threshold, highPct, lowPct, p)
}

// NewStatefulDCFilter builds a delta-compression filter whose candidate
// sets anchor on the previously chosen output (§2.3.3).
func NewStatefulDCFilter(id, attr string, delta, slack float64) (Filter, error) {
	return filter.NewStatefulDC(id, attr, delta, slack)
}

// NewSignalFilter builds a delta-compression filter over a caller-supplied
// signal — the extension hook for domain-specific candidate computation
// (§5.3).
func NewSignalFilter(id string, sig Signal, delta, slack float64) (Filter, error) {
	return filter.NewDCSignal(id, sig, delta, slack)
}

// NewEngine builds an incremental coordination engine over a filter group.
func NewEngine(filters []Filter, opts Options) (*Engine, error) {
	return core.NewEngine(filters, opts)
}

// Run drives a complete series through a fresh engine and returns its
// transmissions and statistics. It is a convenience wrapper over an
// embedded Broker (see NewEmbedded): the group joins a single live
// source, the series is published, and the engine result is returned —
// byte-identical to the long-lived streaming path the broker serves.
func Run(filters []Filter, sr *Series, opts Options) (*Result, error) {
	if sr == nil {
		return nil, fmt.Errorf("gasf: Run needs a series")
	}
	if opts.ShardCount == 0 {
		// A single finite source needs exactly one worker; GOMAXPROCS
		// shards would idle.
		opts.ShardCount = 1
	}
	const name = "source"
	results, _, err := runEmbeddedBatch(map[string][]Filter{name: filters}, map[string]*tuple.Series{name: sr}, opts)
	if err != nil {
		return nil, err
	}
	return results[name], nil
}

// ShardSnapshot reports one worker shard's runtime counters (tuples
// enqueued/processed/dropped, flushes, queue depths, throughput).
type ShardSnapshot = shard.Snapshot

// TelemetrySnapshot is a point-in-time read of the pipeline telemetry:
// the aggregate delivery-latency quantiles (p50/p99 interpolated in a
// log2 histogram, with exact count and sum) and one log-scale duration
// histogram per instrumented pipeline stage. See Embedded.Telemetry.
type TelemetrySnapshot = telemetry.Snapshot

// LatencySnapshot reports one latency view: p50/p99 plus the exact
// sample count and sum. A subscriber session's quantiles are Frugal-2U
// estimates; a source group's, the aggregate's and the relay hop's are
// interpolated inside a log2 histogram bucket, clamped to the observed
// minimum and maximum, so above a microsecond they lie within a factor
// of two of the exact quantile.
type LatencySnapshot = telemetry.LatencySnapshot

// RunSharded drives many single-source filter groups concurrently on the
// sharded multi-source runtime: sources are hash-partitioned onto
// Options.ShardCount worker shards (default GOMAXPROCS) and fed through
// bounded queues with backpressure. Each source keeps the paper's
// single-source semantics — its released sequence is identical to a
// sequential Run of the same group over the same series. groups and
// series must share the same source names. The returned snapshots carry
// the per-shard runtime counters of the completed run. Like Run, it is a
// convenience wrapper over an embedded Broker.
func RunSharded(groups map[string][]Filter, series map[string]*Series, opts Options) (map[string]*Result, []ShardSnapshot, error) {
	if len(groups) == 0 {
		return nil, nil, fmt.Errorf("gasf: RunSharded needs at least one source group")
	}
	for name := range groups {
		if _, ok := series[name]; !ok {
			return nil, nil, fmt.Errorf("gasf: no series for source %q", name)
		}
	}
	if len(series) != len(groups) {
		return nil, nil, fmt.Errorf("gasf: %d series for %d source groups", len(series), len(groups))
	}
	return runEmbeddedBatch(groups, series, opts)
}

// runEmbeddedBatch is the engine room of the Run* wrappers: an embedded
// broker is started with the given engine options, every group joins its
// live source with engine-only membership (no delivery plane), each
// series is published by its own producer with batched hand-offs, and
// the broker drains. The per-source engine results and shard snapshots
// of the completed run are returned.
func runEmbeddedBatch(groups map[string][]Filter, series map[string]*tuple.Series, opts Options) (map[string]*Result, []ShardSnapshot, error) {
	ctx := context.Background()
	names := make([]string, 0, len(groups))
	for name, filters := range groups {
		if len(filters) == 0 {
			return nil, nil, fmt.Errorf("gasf: source %q needs at least one filter", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	b, err := broker.New(session.Config{Engine: opts})
	if err != nil {
		return nil, nil, fmt.Errorf("gasf: %w", err)
	}
	sources := make(map[string]*broker.Source, len(names))
	for _, name := range names {
		src, err := b.OpenSource(name, series[name].Schema())
		if err == nil {
			for _, f := range groups[name] {
				if err = b.AttachFilter(ctx, name, f); err != nil {
					break
				}
			}
		}
		if err != nil {
			b.Close(ctx)
			return nil, nil, fmt.Errorf("gasf: %w", err)
		}
		sources[name] = src
	}
	flush := opts.FlushBatch
	if flush <= 0 {
		flush = shard.DefaultFlushBatch
	}
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		errs  []error
	)
	record := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	for _, name := range names {
		wg.Add(1)
		go func(src *broker.Source, sr *tuple.Series) {
			defer wg.Done()
			all := sr.Tuples()
			for len(all) > 0 {
				n := min(flush, len(all))
				if err := src.PublishBatch(ctx, all[:n]); err != nil {
					record(err)
					return
				}
				all = all[n:]
			}
			if err := src.Finish(ctx); err != nil {
				record(err)
			}
		}(sources[name], series[name])
	}
	wg.Wait()
	if err := b.Close(ctx); err != nil {
		record(err)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, fmt.Errorf("gasf: %w", err)
	}
	return b.Results(), b.Metrics(), nil
}

// RunSelfInterested runs the paper's baseline: every filter selects its
// outputs greedily with no group coordination.
func RunSelfInterested(filters []Filter, sr *Series, opts Options) (*Result, error) {
	return core.RunSelfInterested(filters, sr, opts)
}

// ParseSpec reads a filter specification in the paper's notation, e.g.
// "DC1(fluoro, 0.0301, 0.0150)".
func ParseSpec(text string) (Spec, error) { return quality.Parse(text) }

// Selectivity measures a filter's self-interested selectivity on a sample
// series (§4.8).
func Selectivity(f Filter, sample *Series) (float64, error) {
	return adapt.Selectivity(f, sample)
}

// Partition splits a group into coordinated and direct filters by measured
// selectivity, isolating "bad" filters that would dilute group-aware
// savings (§4.8).
func Partition(filters []Filter, sample *Series, threshold float64) (coordinated, direct []Filter, selectivity map[string]float64, err error) {
	return adapt.Partition(filters, sample, threshold)
}

// RunPartitioned runs a partitioned group: coordinated filters through the
// group-aware engine, direct filters through the baseline, merged into one
// result.
func RunPartitioned(coordinated, direct []Filter, sr *Series, opts Options) (*Result, error) {
	return adapt.RunPartitioned(coordinated, direct, sr, opts)
}

// RunDegrading drives a group under an output-bandwidth budget, degrading
// granularity when the budget is exceeded and restoring it when load
// drops (§3.1).
func RunDegrading(filters []Filter, sr *Series, opts Options, cfg DegradeConfig) (*DegradeResult, error) {
	return adapt.RunDegrading(filters, sr, opts, cfg)
}

// Trace generators used by the paper's evaluation (synthetic equivalents;
// see DESIGN.md for the substitutions).
var (
	// NAMOS generates the lake-buoy trace (six thermistors and a
	// fluorometer).
	NAMOS = trace.NAMOS
	// CowTrace generates the burst-patterned cow-orientation trace.
	CowTrace = trace.Cow
	// SeismicTrace generates the volcano seismic trace.
	SeismicTrace = trace.Seismic
	// FireTrace generates the fire-experiment HRR(Q) trace.
	FireTrace = trace.FireHRR
	// PaperExample returns the worked ten-tuple example used throughout
	// the paper.
	PaperExample = trace.PaperExample
)

// TraceConfig parameterizes the trace generators.
type TraceConfig = trace.Config
