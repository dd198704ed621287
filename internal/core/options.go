// Package core implements the group-aware stream filtering engine: the
// two-stage process of §2.3.1, the region-based greedy algorithm (RG,
// Fig 2.6), the per-candidate-set greedy algorithm (PS, Fig 2.10), timely
// cuts (Chapter 3, Fig 3.3) and the output-scheduling strategies of §3.4.
//
// The engine consumes one source stream, drives a group of filters over
// it, coordinates their candidate sets through a shared global state
// (group utilities, decided outputs), and emits multiplexed transmissions
// labeled with destination applications, ready for tuple-level multicast.
package core

import (
	"fmt"
	"time"
)

// Algorithm selects the group-aware decision algorithm.
type Algorithm int

const (
	// RG is the region-based greedy algorithm (Fig 2.6): outputs are
	// decided by a greedy hitting set over each closed region.
	RG Algorithm = iota
	// PS is the per-candidate-set greedy algorithm (Fig 2.10): each
	// filter decides its output as soon as its candidate set closes,
	// preferring tuples already chosen by other filters.
	PS
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case RG:
		return "RG"
	case PS:
		return "PS"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// OutputStrategy selects when decided outputs are released to the
// multicaster (§3.4).
type OutputStrategy int

const (
	// EarliestRegion releases outputs when their region closes — the
	// earliest possible time that preserves solution optimality. It is
	// the default for both algorithms.
	EarliestRegion OutputStrategy = iota
	// PerCandidateSet releases each output as soon as it is decided;
	// only meaningful under PS (and for stateful sets), where decisions
	// precede region closure. It lowers average latency at the cost of
	// possible disorder within a region.
	PerCandidateSet
	// Batched releases outputs every BatchSize input tuples.
	Batched
)

// String implements fmt.Stringer.
func (s OutputStrategy) String() string {
	switch s {
	case EarliestRegion:
		return "earliest-region"
	case PerCandidateSet:
		return "per-candidate-set"
	case Batched:
		return "batched"
	default:
		return fmt.Sprintf("OutputStrategy(%d)", int(s))
	}
}

// TieBreak selects how utility ties are resolved; the paper prefers the
// most recent tuple to favor temporal freshness. Earliest is provided for
// the ablation study.
type TieBreak int

const (
	// PreferLatest picks the tuple with the latest timestamp on utility
	// ties (the paper's rule).
	PreferLatest TieBreak = iota
	// PreferEarliest picks the earliest; ablation only.
	PreferEarliest
)

// DefaultChosenHorizon bounds how long the PS global state remembers
// chosen tuples for its first heuristic.
const DefaultChosenHorizon = 10 * time.Second

// Options configures an Engine. The zero value is a valid RG engine with
// the earliest-region output strategy and no cuts.
type Options struct {
	// Algorithm selects RG or PS.
	Algorithm Algorithm
	// Strategy selects the output-scheduling strategy.
	Strategy OutputStrategy
	// BatchSize is the release period, in input tuples, for the Batched
	// strategy.
	BatchSize int
	// Cuts enables timely cuts with the MaxDelay group time constraint.
	Cuts bool
	// MaxDelay is the maximum tolerated delay contributed by filtering
	// (the conjunction of the group's time requirements, §3.1).
	MaxDelay time.Duration
	// PredictWindow is the observation window of the greedy run-time
	// predictor; 0 means the paper's default of ten regions.
	PredictWindow int
	// PredictMargin is added to run-time predictions for conservatism.
	PredictMargin time.Duration
	// MulticastDelay is the constant delivery cost added to every
	// latency sample, standing in for the measured application-level
	// multicast invocation cost (§4.1.2).
	MulticastDelay time.Duration
	// Ties selects the utility tie-break rule.
	Ties TieBreak
	// ChosenHorizon bounds the PS chosen-tuple memory; 0 means
	// DefaultChosenHorizon.
	ChosenHorizon time.Duration
	// EmitPunctuations mixes region-closure punctuations into the
	// result so downstream operators can bound reordering (§3.4).
	EmitPunctuations bool

	// The following knobs configure the sharded multi-source runtime
	// (internal/shard) layered above single-source engines. They do not
	// affect a single Engine; shard.FromOptions reads them.

	// ShardCount is the number of worker shards sources are
	// hash-partitioned onto; 0 means GOMAXPROCS.
	ShardCount int
	// QueueDepth is the bounded per-shard input queue length; feeding a
	// full queue blocks (backpressure). 0 means the runtime default.
	QueueDepth int
	// FlushBatch is the number of released transmissions a shard
	// accumulates before flushing them to the delivery sink; shards also
	// flush whenever their queue idles, so the batch bounds throughput
	// cost, not latency. 0 means the runtime default.
	FlushBatch int
}

// validate normalizes and checks the options.
func (o Options) validate() (Options, error) {
	if o.Algorithm != RG && o.Algorithm != PS {
		return o, fmt.Errorf("core: unknown algorithm %d", int(o.Algorithm))
	}
	switch o.Strategy {
	case EarliestRegion, PerCandidateSet:
	case Batched:
		if o.BatchSize <= 0 {
			return o, fmt.Errorf("core: batched strategy requires a positive BatchSize")
		}
	default:
		return o, fmt.Errorf("core: unknown output strategy %d", int(o.Strategy))
	}
	if o.Cuts && o.MaxDelay <= 0 {
		return o, fmt.Errorf("core: cuts require a positive MaxDelay")
	}
	if o.ChosenHorizon == 0 {
		o.ChosenHorizon = DefaultChosenHorizon
	}
	if o.ShardCount < 0 || o.QueueDepth < 0 || o.FlushBatch < 0 {
		return o, fmt.Errorf("core: negative shard runtime knob (shards %d, queue %d, flush %d)",
			o.ShardCount, o.QueueDepth, o.FlushBatch)
	}
	return o, nil
}
