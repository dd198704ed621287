// Package session is the transport-free session core under both broker
// transports: the embedded broker (internal/broker) and the TCP server
// (internal/server) are adapters over one Core.
//
// The paper has one session semantic — a filter group per source,
// re-derived at a tuple boundary when a member joins or leaves (§4.3),
// whose released tuples carry destination labels pruned to the live
// members — and the core is its only implementation:
//
//   - the registries (sources, per-source members, the membership epoch);
//   - the lifecycles: open/finish/release a source, join/leave/evict a
//     member, close the core;
//   - the epoch-keyed cache mapping a released transmission's
//     engine-decided destination list to live members and their labels;
//   - the bounded-queue send under the slow-consumer policy, with the
//     degrade governor's observe → kick → Control(SetScale) → applied loop;
//   - the durable log's append-before-fan-out offset and the resume fence;
//   - flow-gap expiry of silent sources.
//
// An adapter owns what is genuinely transport: how a tuple arrives, what a
// queued item is (T), and how an item reaches the consumer. The core
// reaches an adapter's end of a member through that member's signals:
// Queue (the items), Fin (end of stream), Done plus EvictReason (departure
// and the typed eviction notice) and Peer.QoSApplied (the degrade
// announcement).
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/core"
	"gasf/internal/flowgap"
	"gasf/internal/seglog"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
)

// Policy selects how a member's full queue is treated.
type Policy int

const (
	// Block applies backpressure: the shard worker waits for queue space,
	// which eventually stalls the publishers feeding that shard. Nothing
	// is lost; the slowest consumer paces its sources.
	Block Policy = iota
	// Drop discards the delivery and counts it, keeping fast members and
	// publishers unaffected by a slow one.
	Drop
	// Degrade keeps Block's zero-loss backpressure and adds a per-member
	// adapt.Governor: under sustained queue pressure (or past the
	// delivery-p99 watermark) a member whose filter implements
	// adapt.Scalable has its effective quality spec coarsened stepwise at
	// tuple boundaries, each change announced through Peer.QoSApplied, and
	// restored stepwise with hysteresis once pressure clears. A member
	// whose filter is not Scalable degrades to plain blocking.
	Degrade
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy reads a policy name ("block", "drop" or "degrade").
func ParsePolicy(s string) (Policy, error) {
	for p := Block; p <= Degrade; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown slow-consumer policy %q (want block, drop or degrade)", s)
}

// Config parameterizes a Core. The zero value runs default engine options
// with blocking slow-consumer handling, no flow-gap expiry and no log.
type Config struct {
	// Engine configures the group-aware engine deployed per source
	// (algorithm, cuts, output strategy) and the shard runtime knobs.
	Engine core.Options
	// SubscriberQueue bounds each member's queue, in items; 0 means 256.
	// A member may request its own depth, clamped to MaxSubscriberQueue
	// (memory protection; 0 means 65536).
	SubscriberQueue    int
	MaxSubscriberQueue int
	// Policy selects the slow-consumer policy.
	Policy Policy
	// EvictAfterDrops evicts a Drop-policy member once this many of its
	// deliveries were dropped; 0 drops forever.
	EvictAfterDrops int
	// Degrade tunes the per-member governor of the Degrade policy; zero
	// values take the governor defaults.
	Degrade adapt.GovernorConfig
	// BlockTimeout bounds how long a blocking send waits on a full queue
	// before the member is evicted, for a transport with no other way to
	// notice an abandoned consumer. 0 waits as long as the member stays
	// (the TCP writer's own write timeout ends a stuck session there).
	BlockTimeout time.Duration
	// SourceTimeout expires a source silent for this long (see
	// OnExpire); 0 or negative disables the flow-gap wheel. ScanInterval
	// is the wheel's granularity — detection is late by at most two
	// intervals, never early; 0 derives SourceTimeout/8 clamped to
	// [10ms, 1s].
	SourceTimeout time.Duration
	ScanInterval  time.Duration
	// OnExpire is told of each expired source (its Owner, and how far
	// past the deadline the expiry fired). It runs on the wheel's advance
	// loop and must not block; ending the session is the adapter's job,
	// through its usual finish path.
	OnExpire func(owner any, lag time.Duration)
	// DataDir, when set, makes the core durable: AppendLog records every
	// fanned-out transmission in a per-source segment log under this
	// directory and members may resume from a recorded offset. New
	// recovers the log (truncating any torn tail). Seglog tunes it.
	DataDir string
	Seglog  seglog.Options
	// TelemetrySampleEvery sets the stage-timing sampling period (one in
	// N events, rounded up to a power of two); 0 means
	// telemetry.DefaultSampleEvery, negative disables telemetry.
	TelemetrySampleEvery int
	// ShareLabels says queued items alias Source.Labels, so a recompute
	// never rewrites the old slice in place: it shares the engine's
	// immutable destination list when no addressee was pruned, and
	// allocates a fresh slice only for a pruned view.
	ShareLabels bool
	// KeepResults makes every source's engine retain what it released
	// (its transmissions, and the latency samples Finish derives from
	// them) for Runtime().Results(), which the embedded broker publishes.
	// The samples appear once the source finished. Without it the engines
	// are drained: the sink is the only consumer of a release, and a
	// source's memory follows its open regions instead of the length of
	// its stream.
	KeepResults bool
}

func (c Config) withDefaults() Config {
	if c.SubscriberQueue <= 0 {
		c.SubscriberQueue = 256
	}
	if c.MaxSubscriberQueue <= 0 {
		c.MaxSubscriberQueue = 65536
	}
	if c.SubscriberQueue > c.MaxSubscriberQueue {
		c.MaxSubscriberQueue = c.SubscriberQueue
	}
	if c.ScanInterval <= 0 && c.SourceTimeout > 0 {
		c.ScanInterval = min(max(c.SourceTimeout/8, 10*time.Millisecond), time.Second)
	}
	return c
}

// ErrClosed rejects opens and joins once Close has begun.
var ErrClosed = errors.New("session: closed")

// Stats are the core's lifecycle counters.
type Stats struct {
	SourcesExpired  uint64 // sources expired by the flow-gap wheel
	Evictions       uint64 // members force-detached (block timeout, drop threshold)
	Drops           uint64 // deliveries lost to the policy or to departure
	Degrades        uint64 // governor verdicts that coarsened a member
	Restores        uint64 // governor verdicts that restored one
	LogAppendErrors uint64 // failed durable-log appends (delivery continued)
}

// Core is the session runtime over one shard runtime. T is the adapter's
// queued item (a delivery, a batch of encoded frames); the core moves
// items without looking inside.
type Core[T any] struct {
	cfg    Config
	rt     *shard.Runtime
	cancel context.CancelFunc
	log    *seglog.Log
	tel    *telemetry.Pipeline

	// mu guards the registries. Route (every fan-out) and the snapshots
	// take the read side, so shard workers do not serialize against each
	// other or against opens and joins.
	mu      sync.RWMutex
	sources map[string]*Source[T]
	members map[string]map[string]*Member[T] // source -> app
	closed  bool

	wheel     *flowgap.Wheel
	wheelStop chan struct{}
	wheelDone chan struct{}

	expired, evictions, drops, degrades, restores, logAppendErrs atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// New opens the durable log (when configured), starts the shard runtime
// with the adapter's sink and, with SourceTimeout set, the flow-gap loop.
// The sink fans out through Route, AppendLog and Member.Send.
func New[T any](cfg Config, sink shard.Sink) (*Core[T], error) {
	cfg = cfg.withDefaults()
	if cfg.Policy == Degrade {
		// Surface a bad governor config here, not at the first join.
		if _, err := adapt.NewGovernor(cfg.Degrade); err != nil {
			return nil, err
		}
	}
	c := &Core[T]{
		cfg:     cfg,
		sources: make(map[string]*Source[T]),
		members: make(map[string]map[string]*Member[T]),
	}
	if cfg.DataDir != "" {
		log, err := seglog.Open(cfg.DataDir, cfg.Seglog)
		if err != nil {
			return nil, fmt.Errorf("opening durable log: %w", err)
		}
		c.log = log
	}
	if cfg.TelemetrySampleEvery >= 0 {
		c.tel = telemetry.New(cfg.TelemetrySampleEvery)
	}
	sc := shard.FromOptions(cfg.Engine)
	sc.Telemetry = c.tel
	c.rt = shard.New(sc)
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	if err := c.rt.Start(ctx, sink); err != nil {
		cancel()
		if c.log != nil {
			c.log.Close()
		}
		return nil, err
	}
	if cfg.SourceTimeout > 0 {
		c.wheel = flowgap.NewWheel(cfg.ScanInterval, cfg.SourceTimeout, c.expire)
		c.wheelStop, c.wheelDone = make(chan struct{}), make(chan struct{})
		go c.advanceLoop()
	}
	return c, nil
}

// advanceLoop drives flow-gap detection until Close. Each tick inspects
// only the sessions whose liveness deadline falls due — never the whole
// population, never under the registry lock.
func (c *Core[T]) advanceLoop() {
	defer close(c.wheelDone)
	tick := time.NewTicker(c.cfg.ScanInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.wheelStop:
			return
		case now := <-tick.C:
			c.wheel.Advance(now)
		}
	}
}

func (c *Core[T]) expire(data any, lag time.Duration) {
	c.expired.Add(1)
	if c.cfg.OnExpire != nil {
		c.cfg.OnExpire(data.(*Source[T]).Owner, lag)
	}
}

// Config returns the configuration in effect (defaults resolved).
func (c *Core[T]) Config() Config { return c.cfg }

// Runtime exposes the shard runtime: adapters submit tuples to it and
// read its metrics and results.
func (c *Core[T]) Runtime() *shard.Runtime { return c.rt }

// Telemetry is the stage-timing and latency pipeline (nil when disabled).
func (c *Core[T]) Telemetry() *telemetry.Pipeline { return c.tel }

// Log is the durable log (nil unless Config.DataDir was set). Appends go
// through AppendLog, a member's history through Replay.
func (c *Core[T]) Log() *seglog.Log { return c.log }

// Wheel is the flow-gap wheel (nil unless Config.SourceTimeout enabled
// it; every Wheel method is nil-safe). Adapters touch a source's Gap
// entry through it.
func (c *Core[T]) Wheel() *flowgap.Wheel { return c.wheel }

// Stats snapshots the lifecycle counters.
func (c *Core[T]) Stats() Stats {
	return Stats{
		SourcesExpired:  c.expired.Load(),
		Evictions:       c.evictions.Load(),
		Drops:           c.drops.Load(),
		Degrades:        c.degrades.Load(),
		Restores:        c.restores.Load(),
		LogAppendErrors: c.logAppendErrs.Load(),
	}
}

// Inspect calls fn for every registered source with its live members,
// under the registry's read lock; fn must not call back into the core.
func (c *Core[T]) Inspect(fn func(src *Source[T], members map[string]*Member[T])) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for name, src := range c.sources {
		fn(src, c.members[name])
	}
}

// Close drains the core, once. Opens and joins are rejected from here on.
// finish is the adapter's graceful end of the still-open sources: it must
// put each through FinishSource — flushing the engine tail through the
// members — and return once all have. The runtime then drains, the log is
// sealed and every remaining member's stream ends. If ctx expires first
// the drain is aborted: the runtime is cancelled, every member is marked
// departed (releasing a worker parked in a blocking send, which
// cancellation alone cannot reach) and abort — when non-nil — unblocks
// whatever finish is still waiting on.
func (c *Core[T]) Close(ctx context.Context, finish func(open []*Source[T]) error, abort func()) error {
	c.closeOnce.Do(func() { c.closeErr = c.close(ctx, finish, abort) })
	return c.closeErr
}

func (c *Core[T]) close(ctx context.Context, finish func(open []*Source[T]) error, abort func()) error {
	// Stop flow-gap expiry first: Close owns the remaining finishes.
	if c.wheel != nil {
		close(c.wheelStop)
		<-c.wheelDone
	}
	c.mu.Lock()
	c.closed = true
	open := make([]*Source[T], 0, len(c.sources))
	for _, src := range c.sources {
		if !src.finished {
			open = append(open, src)
		}
	}
	c.mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- errors.Join(finish(open), c.rt.Drain()) }()
	var err error
	aborted := false
	select {
	case err = <-done:
	case <-ctx.Done():
		aborted = true
		c.cancel()
		c.mu.RLock()
		for _, group := range c.members {
			for _, m := range group {
				m.depart()
			}
		}
		c.mu.RUnlock()
		if abort != nil {
			abort()
		}
		err = <-done
	}
	c.cancel()
	// The workers are gone, so no sink append can race the seal and no
	// send can follow the stream ends below. Replays may still be reading
	// the log; reads work on snapshots and are unaffected.
	if c.log != nil {
		err = errors.Join(err, c.log.Close())
	}
	c.mu.Lock()
	rest := c.members
	c.members = make(map[string]map[string]*Member[T])
	c.mu.Unlock()
	for _, group := range rest {
		for _, m := range group {
			m.EndStream()
		}
	}
	if aborted {
		// The abort cancelled the runtime on purpose; surfacing the
		// cancellation itself would make every bounded Close fail.
		return stripCtxErrs(err)
	}
	return err
}

// stripCtxErrs removes context-cancellation errors from a (possibly
// joined) error tree, keeping real failures.
func stripCtxErrs(err error) error {
	if err == nil {
		return nil
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		var keep []error
		for _, e := range joined.Unwrap() {
			if e = stripCtxErrs(e); e != nil {
				keep = append(keep, e)
			}
		}
		return errors.Join(keep...)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	return err
}
