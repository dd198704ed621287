// Package broker implements the embedded (in-process) streaming broker:
// dynamic sources and subscriptions multiplexed onto the sharded
// group-aware filtering runtime (internal/shard), with the same session
// semantics as the networked server (internal/server) but no sockets in
// the loop.
//
// The broker is the adapter layer behind the public gasf.Broker API's
// embedded implementation. It mirrors the server's lifecycle exactly so
// the two transports stay behaviorally interchangeable — the facade's
// parity suite asserts byte-identical released sequences per subscriber:
//
//   - A source opens with a name and schema, streams strictly
//     timestamp-ordered tuples, and finishes; finishing flushes the
//     engine's tail to its subscribers, then ends their streams.
//   - A subscriber joins a source's live group with a quality
//     specification at a tuple boundary (the paper's group re-derivation,
//     §4.3) and leaves the same way; membership changes are applied by
//     the source's owning shard worker, so other sources are undisturbed.
//   - Deliveries are fanned out per released transmission with the
//     destination labels pruned to the live subscribers, exactly as the
//     server's sink prunes departed sessions from the wire encoding.
//   - A bounded per-subscription delivery queue applies the block or
//     drop slow-consumer policy.
package broker

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/flowgap"
	"gasf/internal/quality"
	"gasf/internal/seglog"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// Policy selects how a full subscription queue is treated.
type Policy int

const (
	// Block applies backpressure: the shard worker waits for queue space,
	// which eventually stalls the publishers feeding that shard.
	Block Policy = iota
	// Drop discards the delivery and counts it, keeping fast subscribers
	// and publishers unaffected by a slow one.
	Drop
	// Degrade blocks like Block but adaptively coarsens the precision of
	// pressured subscriptions whose filters support scaling
	// (adapt.Scalable): an adapt.Governor per subscription watches queue
	// occupancy and delivery p99 and widens the effective quality spec
	// under overload, restoring it stepwise once calm. Subscriptions whose
	// filters are not Scalable degrade to plain blocking.
	Degrade
)

// Config parameterizes a Broker. The zero value runs default engine
// options with blocking slow-consumer handling.
type Config struct {
	// Engine configures the group-aware engine deployed per source
	// (algorithm, cuts, output strategy) and the shard runtime knobs.
	Engine core.Options
	// SubscriberQueue bounds each subscription's delivery queue, in
	// deliveries; 0 means 256. A subscription may request its own depth,
	// clamped to MaxSubscriberQueue.
	SubscriberQueue int
	// MaxSubscriberQueue caps the per-subscription queue depth a
	// subscriber may request (memory protection); 0 means 65536.
	MaxSubscriberQueue int
	// Policy selects the slow-consumer policy (block or drop).
	Policy Policy
	// EvictTimeout bounds how long a blocking delivery waits on a full
	// subscription queue before the subscriber is treated as departed
	// and evicted — the in-process mirror of the server's WriteTimeout,
	// and what keeps an abandoned blocking subscription from wedging a
	// shard worker (and with it Finish and a graceful Close) forever.
	// 0 means 10s; negative disables eviction (unbounded blocking).
	EvictTimeout time.Duration
	// EvictAfterDrops evicts a Drop-policy subscription once its dropped
	// delivery count reaches this threshold: instead of silently losing
	// deliveries forever, the subscription is detached and Recv surfaces
	// ErrEvicted. 0 disables (the historical semantics: drop forever).
	EvictAfterDrops int
	// Degrade tunes the per-subscription governor used by the Degrade
	// policy (watermarks, step, cooldown). The zero value takes the
	// governor defaults. Ignored under other policies.
	Degrade adapt.GovernorConfig
	// SourceTimeout auto-finishes a silent source: one that neither
	// publishes nor sits in a backpressured submit for this long is
	// finished as if its owner had called Finish (engine tail flushed,
	// subscriber streams ended) — the in-process mirror of the server's
	// flow-gap expiry, for embedded publishers that abandon a stream
	// without finishing it. 0 (the default) and negative disable the
	// tracker entirely: an embedded source then lives until Finish or
	// Close, the historical semantics.
	SourceTimeout time.Duration
	// ScanInterval is the granularity of the flow-gap wheel when
	// SourceTimeout is set: silence is detected no earlier than
	// SourceTimeout and no later than about two intervals past it. 0
	// derives SourceTimeout/8 clamped to [10ms, 1s]. Ignored when
	// SourceTimeout leaves the tracker disabled.
	ScanInterval time.Duration
	// DataDir, when set, makes the broker durable: every delivered
	// transmission is appended to a per-source segment log under this
	// directory before fan-out, deliveries carry their log offsets, and
	// subscriptions may resume from a recorded offset. New recovers the
	// log (truncating any torn tail) before accepting work.
	DataDir string
	// Seglog tunes the durable log (segment size, fsync policy). Ignored
	// unless DataDir is set.
	Seglog seglog.Options
	// TelemetrySampleEvery sets the stage-timing sampling period: one in
	// every N hot-path events per stage is timed (rounded up to a power
	// of two). 0 means telemetry.DefaultSampleEvery; negative disables
	// stage timing and latency estimation entirely.
	TelemetrySampleEvery int
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
	if c.EvictTimeout == 0 {
		c.EvictTimeout = 10 * time.Second
	}
	if c.ScanInterval <= 0 && c.SourceTimeout > 0 {
		c.ScanInterval = c.SourceTimeout / 8
		if c.ScanInterval < 10*time.Millisecond {
			c.ScanInterval = 10 * time.Millisecond
		}
		if c.ScanInterval > time.Second {
			c.ScanInterval = time.Second
		}
	}
	return c
}

// ErrStreamEnded reports a graceful end of a subscription stream (the
// source finished or the broker closed).
var ErrStreamEnded = errors.New("broker: stream ended")

// ErrEvicted reports that the broker force-detached the subscription —
// it blocked past Config.EvictTimeout, or exceeded Config.EvictAfterDrops
// under the drop policy. Recv errors wrap it with the reason.
var ErrEvicted = errors.New("broker: subscriber evicted")

// errClosed rejects operations after Close.
var errClosed = errors.New("broker: closed")

// Delivery is one transmission received by a subscription: the tuple,
// the destination label list pruned to the subscribers that were live at
// release time (this subscription is one of them), and the receive
// instant stamped by Recv.
type Delivery struct {
	Tuple        *tuple.Tuple
	Destinations []string
	ReceivedAt   time.Time
	// Offset is the delivery's position in the source's durable log when
	// the broker runs with Config.DataDir (0 otherwise, and 0 for the log's
	// first record). A consumer that checkpointed offset o resumes with
	// SubOptions.ResumeFrom = o+1.
	Offset uint64
}

// Broker is the embedded streaming runtime. Create with New, open
// publishers with OpenSource, join groups with Subscribe, stop with
// Close.
type Broker struct {
	cfg    Config
	rt     *shard.Runtime
	cancel context.CancelFunc

	// log is the durable per-source segment log, nil unless Config.DataDir
	// was set. The sink appends before fan-out; replay goroutines read it
	// concurrently (reads work on snapshots, so they also tolerate Close).
	log           *seglog.Log
	logAppendErrs atomic.Uint64

	// mu guards the session registries; the delivery fan-out (sink) takes
	// the read side so shard workers do not serialize against each other
	// or against open/subscribe calls.
	mu      sync.RWMutex
	sources map[string]*Source
	subs    map[string]map[string]*Sub
	closed  bool

	// tel is the stage-timing and latency-estimation pipeline; nil when
	// Config.TelemetrySampleEvery is negative.
	tel *telemetry.Pipeline

	// wheel tracks per-source liveness when Config.SourceTimeout is set
	// (nil otherwise): publishes touch it off the lock, a background
	// loop advances it every ScanInterval, and expiry auto-finishes the
	// silent source. Shared design with the networked server's flow-gap
	// detector.
	wheel     *flowgap.Wheel
	evictStop chan struct{}
	evictWG   sync.WaitGroup
	evicted   atomic.Uint64

	// evictedSubs counts subscriptions force-detached (blocked past
	// EvictTimeout, or past EvictAfterDrops under the drop policy).
	evictedSubs atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// New starts an embedded broker over a fresh shard runtime. With
// Config.DataDir set it first opens (and recovers) the durable log, so a
// failed recovery surfaces here rather than on the first publish.
func New(cfg Config) (*Broker, error) {
	cfg = cfg.withDefaults()
	if cfg.Policy == Degrade {
		// Surface a bad governor config here, not on the first Subscribe.
		if _, err := adapt.NewGovernor(cfg.Degrade); err != nil {
			return nil, fmt.Errorf("broker: %w", err)
		}
	}
	var log *seglog.Log
	if cfg.DataDir != "" {
		var err error
		if log, err = seglog.Open(cfg.DataDir, cfg.Seglog); err != nil {
			return nil, fmt.Errorf("broker: opening durable log: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var tel *telemetry.Pipeline
	if cfg.TelemetrySampleEvery >= 0 {
		tel = telemetry.New(cfg.TelemetrySampleEvery)
	}
	sc := shard.FromOptions(cfg.Engine)
	sc.Telemetry = tel
	b := &Broker{
		cfg:     cfg,
		rt:      shard.New(sc),
		cancel:  cancel,
		log:     log,
		sources: make(map[string]*Source),
		subs:    make(map[string]map[string]*Sub),
		tel:     tel,
	}
	if err := b.rt.Start(ctx, b.sink); err != nil {
		cancel()
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	if cfg.SourceTimeout > 0 {
		b.wheel = flowgap.NewWheel(cfg.ScanInterval, cfg.SourceTimeout, b.expireSource)
		b.evictStop = make(chan struct{})
		b.evictWG.Add(1)
		go func() {
			defer b.evictWG.Done()
			tk := time.NewTicker(cfg.ScanInterval)
			defer tk.Stop()
			for {
				select {
				case <-b.evictStop:
					return
				case now := <-tk.C:
					b.wheel.Advance(now)
				}
			}
		}()
	}
	return b, nil
}

// expireSource is the wheel's expiry callback: the silent source is
// finished exactly as if its owner had called Finish, off the advance
// loop so a long tail flush cannot stall expiry of other sources.
func (b *Broker) expireSource(data any, _ time.Duration) {
	src := data.(*Source)
	b.evicted.Add(1)
	go src.Finish(context.Background())
}

// Evicted returns the count of sources auto-finished by flow-gap expiry
// (always 0 unless Config.SourceTimeout enabled the tracker).
func (b *Broker) Evicted() uint64 { return b.evicted.Load() }

// EvictedSubs returns the count of subscriptions force-detached for
// blocking past EvictTimeout or dropping past EvictAfterDrops.
func (b *Broker) EvictedSubs() uint64 { return b.evictedSubs.Load() }

// Durable reports whether the broker writes a durable log (Config.DataDir
// was set), i.e. whether resuming subscriptions are accepted.
func (b *Broker) Durable() bool { return b.log != nil }

// LogAppendErrors returns the count of failed durable-log appends
// (durability degraded; delivery continued).
func (b *Broker) LogAppendErrors() uint64 { return b.logAppendErrs.Load() }

// Runtime exposes the shard runtime for metrics.
func (b *Broker) Runtime() *shard.Runtime { return b.rt }

// Results returns the per-source engine results accumulated so far; call
// after the sources finished (or after Close) for settled results.
// Unlike the networked server, the embedded broker retains finished
// sources, so batch runs can read their results.
func (b *Broker) Results() map[string]*core.Result { return b.rt.Results() }

// Metrics returns the per-shard runtime counters.
func (b *Broker) Metrics() []shard.Snapshot { return b.rt.Metrics() }

// Telemetry snapshots the stage-timing histograms and delivery-latency
// quantiles (a zero snapshot when telemetry is disabled). The embedded
// delivery point is the queue hand-off in the sink, so delivery latency
// here spans publish to enqueue, not a socket write.
func (b *Broker) Telemetry() telemetry.Snapshot { return b.tel.Snapshot() }

// sinkState caches the per-source fan-out of the last released
// transmission: the engine-decided destination list is mapped to live
// subscription targets and their labels once per (epoch, list) run
// instead of once per transmission — the in-process mirror of the
// server's encode cache. targets/labels are reallocated (never trimmed
// in place) on recompute because queued Deliveries share the labels
// slice.
type sinkState struct {
	epoch   uint64
	inDests []string
	targets []*Sub
	labels  []string

	// enc and encBuf serve the durable log: on a durable broker the sink
	// encodes each delivered transmission (pruned labels — exactly the
	// bytes a networked subscriber would receive) and appends it before
	// fan-out. Owned by the source's shard worker like the rest of the
	// state, so no locking.
	enc    wire.TransmissionEncoder
	encBuf []byte
}

// Source is one open publisher session.
type Source struct {
	b      *Broker
	name   string
	schema *tuple.Schema

	// subEpoch counts subscriber-registry changes for this source; it is
	// written under Broker.mu and read under its read side. The sink's
	// cache is keyed by it, so a membership change can never serve stale
	// targets or labels.
	subEpoch uint64
	// sink is owned by the source's shard worker (sink calls for one
	// source are serialized), so it needs no locking of its own.
	sink sinkState

	// gap is the source's liveness entry in the broker's flow-gap wheel
	// (untracked when eviction is disabled). Publishes touch it and hold
	// its busy flag across the shard submit, so a source stalled in
	// backpressure is never mistaken for a silent one.
	gap flowgap.Entry

	mu       sync.Mutex
	lastTS   time.Time
	finished bool
	one      [1]*tuple.Tuple // Publish scratch

	// lat estimates the source group's delivery-latency quantiles; fed
	// by the sink at fan-out. Nil when telemetry is disabled.
	lat *telemetry.LatencyPair

	finOnce sync.Once
	finDone chan struct{}
	finErr  error
}

// OpenSource registers a live source: tuples may be published and
// subscribers may join as soon as the call returns. Source names are
// unique for the broker's lifetime (a finished source keeps its name and
// its result; reopening it is an error).
func (b *Broker) OpenSource(name string, schema *tuple.Schema) (*Source, error) {
	if name == "" {
		return nil, fmt.Errorf("broker: empty source name")
	}
	if schema == nil {
		return nil, fmt.Errorf("broker: nil schema for source %q", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errClosed
	}
	if b.sources[name] != nil {
		return nil, fmt.Errorf("broker: source %q already opened", name)
	}
	engine, err := core.NewDynamicEngine(b.cfg.Engine)
	if err != nil {
		return nil, err
	}
	if err := b.rt.AddSourceLive(name, engine); err != nil {
		return nil, err
	}
	src := &Source{b: b, name: name, schema: schema, finDone: make(chan struct{})}
	if b.tel != nil {
		src.lat = telemetry.NewLatencyPair()
	}
	b.sources[name] = src
	b.wheel.Add(&src.gap, src)
	return src, nil
}

// Name returns the source name.
func (s *Source) Name() string { return s.name }

// Schema returns the advertised schema.
func (s *Source) Schema() *tuple.Schema { return s.schema }

// Publish enqueues one tuple for the source's shard, blocking under
// backpressure until either ctx or the broker is done. Timestamps must
// be strictly increasing and the tuple must use the advertised schema —
// the same contract the networked server enforces at ingest.
func (s *Source) Publish(ctx context.Context, t *tuple.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.one[0] = t
	err := s.publishLocked(ctx, s.one[:])
	s.one[0] = nil
	return err
}

// PublishBatch publishes a run of tuples, crossing the shard boundary in
// one synchronization when the ring has room. Per-source calls must be
// serialized by the caller's use of one Source handle (the handle locks
// internally). The slice is not retained.
func (s *Source) PublishBatch(ctx context.Context, tuples []*tuple.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publishLocked(ctx, tuples)
}

func (s *Source) publishLocked(ctx context.Context, tuples []*tuple.Tuple) error {
	if s.finished {
		return fmt.Errorf("broker: source %q finished", s.name)
	}
	lastTS := s.lastTS
	for _, t := range tuples {
		if t == nil {
			return fmt.Errorf("broker: nil tuple for source %q", s.name)
		}
		if !t.Schema().Equal(s.schema) {
			return fmt.Errorf("broker: tuple %d does not use the schema %v advertised by source %q", t.Seq, s.schema, s.name)
		}
		if !t.TS.After(lastTS) {
			return fmt.Errorf("broker: tuple %d timestamp %v not after previous %v", t.Seq, t.TS, lastTS)
		}
		lastTS = t.TS
	}
	// The timestamp cursor advances past every validated tuple even if
	// the submit fails partway — mirroring the server, which has decoded
	// (and may have enqueued) them by the time an error surfaces.
	s.lastTS = lastTS
	if w := s.b.wheel; w != nil {
		w.Touch(&s.gap)
		s.gap.SetBusy(true)
		err := s.b.rt.SubmitBatchContext(ctx, s.name, tuples)
		s.gap.SetBusy(false)
		return err
	}
	return s.b.rt.SubmitBatchContext(ctx, s.name, tuples)
}

// Sync is the publish barrier: when it returns, every previously
// published tuple is ordered in the source's shard ring ahead of any
// later membership change. The embedded publish path is synchronous, so
// Sync only reports whether the source is still usable; the networked
// transport gives it real work.
func (s *Source) Sync(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return fmt.Errorf("broker: source %q finished", s.name)
	}
	// A barrier is proof of life even with nothing published.
	s.b.wheel.Touch(&s.gap)
	return nil
}

// Finish ends the stream: the engine's Finish runs on the owning shard,
// its tail is flushed to the subscribers, and their streams end. Finish
// is idempotent; concurrent calls wait for the same completion. If ctx
// expires first, finishing continues in the background and the
// subscribers' streams still end once the tail has flushed.
func (s *Source) Finish(ctx context.Context) error {
	s.finOnce.Do(func() {
		s.mu.Lock()
		s.finished = true
		s.mu.Unlock()
		// Drop the liveness entry; a finished source is not a silent one.
		// (Unclean removal — Finish racing the expiry callback — is fine:
		// sources are heap-allocated and never reused.)
		s.b.wheel.Remove(&s.gap)
		go func() {
			err := s.b.rt.FinishSourceWait(s.name)
			// The finish marker has been processed (or the runtime is
			// gone), so no further sink flush can touch these
			// subscriptions: their queues are complete and may be closed.
			s.b.mu.Lock()
			subs := s.b.subs[s.name]
			delete(s.b.subs, s.name)
			s.b.mu.Unlock()
			for _, sub := range subs {
				sub.finishStream()
			}
			s.finErr = err
			close(s.finDone)
		}()
	})
	select {
	case <-s.finDone:
		return s.finErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// AttachFilter joins a pre-built filter to a source's live group with no
// delivery session: the engine coordinates it and its outputs appear in
// the source's Result, but nothing is fanned out for it. The batch Run
// wrappers in the facade use it to drive finite runs without a delivery
// plane.
func (b *Broker) AttachFilter(ctx context.Context, source string, f filter.Filter) error {
	if f == nil {
		return fmt.Errorf("broker: nil filter for source %q", source)
	}
	return b.rt.ControlContext(ctx, source, func(e *core.Engine) error { return e.AddFilter(f) })
}

// Sub is one live subscription: a bounded queue of deliveries between
// the source's shard worker and the receiving application.
type Sub struct {
	b      *Broker
	app    string
	source string
	schema *tuple.Schema
	spec   quality.Spec

	out chan Delivery
	// fin signals end of stream (closed after the source's final flush,
	// or at broker teardown); out itself is never closed, so a worker's
	// in-flight send can never race the teardown. Buffered deliveries
	// remain receivable after fin closes.
	fin  chan struct{}
	done chan struct{}

	// Resume state. spliceTo is the fence captured inside the AddFilter
	// control closure — it runs on the owning shard worker at a tuple
	// boundary, the same goroutine that appends to the log, so every live
	// delivery for this subscription carries an offset >= spliceTo and the
	// replayed history [resumeFrom, spliceTo) tiles the log exactly.
	resume     bool
	resumeFrom uint64
	spliceTo   uint64
	// replay carries the history records; the replay goroutine closes it
	// at the fence (replayErr is written first, and is safe to read after
	// observing the close). Recv drains replay before touching live
	// deliveries; the consumer side of a Sub is single-threaded, as on
	// every other transport.
	replay    chan Delivery
	replayErr error

	leaveOnce sync.Once
	finOnce   sync.Once
	dropped   atomic.Uint64

	// Degrade-policy state (nil/zero under other policies, or when the
	// subscription's filter is not adapt.Scalable). The governor is driven
	// only by the source's shard worker (send calls are serialized), so it
	// needs no lock; the decided target crosses to scaleLoop — which must
	// be a separate goroutine, since Control from the worker would
	// deadlock — via targetScale + scaleKick, and the scale in effect is
	// published in applied for QoS.
	gov         *adapt.Governor
	scalable    adapt.Scalable
	scaleKick   chan struct{}
	targetScale atomic.Uint64 // float64 bits
	applied     atomic.Uint64 // float64 bits

	// evictMsg latches the eviction reason before done closes, so a
	// receiver unblocked by the close observes it (the close is the
	// happens-before edge).
	evictOnce sync.Once
	evictMsg  atomic.Pointer[string]

	// lat estimates this subscription's delivery-latency quantiles; fed
	// by the sink at enqueue. Nil when telemetry is disabled.
	lat *telemetry.LatencyPair
}

// Latency snapshots the subscription's delivery-latency quantiles (zero
// when telemetry is disabled).
func (s *Sub) Latency() telemetry.LatencySnapshot { return s.lat.Snapshot() }

// SubOptions parameterizes Subscribe.
type SubOptions struct {
	// Queue bounds the delivery queue; 0 accepts the broker default, and
	// requests are clamped to Config.MaxSubscriberQueue.
	Queue int
	// Resume asks for a catch-up subscription on a durable broker: the
	// source's log records in [ResumeFrom, fence) addressed to this app
	// are delivered first (in order, with their offsets), then the live
	// stream continues seamlessly from the fence.
	Resume     bool
	ResumeFrom uint64
}

// Subscribe joins a source's live filter group with a quality
// specification. The join is applied by the source's owning shard worker
// at a tuple boundary: the subscriber sees exactly the tuples published
// after Subscribe returns, and the group is re-derived without
// disturbing the source's other subscribers. With o.Resume set (durable
// brokers only) the subscription first replays the source's history from
// o.ResumeFrom up to the join fence, then continues live — gapless and
// duplicate-free.
func (b *Broker) Subscribe(ctx context.Context, app, source string, spec quality.Spec, o SubOptions) (*Sub, error) {
	if app == "" {
		return nil, fmt.Errorf("broker: empty app name")
	}
	queue := o.Queue
	if queue < 0 {
		return nil, fmt.Errorf("broker: negative queue depth %d", queue)
	}
	if o.Resume && b.log == nil {
		return nil, fmt.Errorf("broker: resume requested but the broker has no durable log (set Config.DataDir)")
	}
	f, err := spec.Build(app)
	if err != nil {
		return nil, err
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errClosed
	}
	if o.Resume {
		if head := b.log.NextOffset(source); o.ResumeFrom > head {
			b.mu.Unlock()
			return nil, fmt.Errorf("broker: resume offset %d is beyond the log head %d of source %q", o.ResumeFrom, head, source)
		}
	}
	src := b.sources[source]
	if src == nil {
		b.mu.Unlock()
		return nil, fmt.Errorf("broker: unknown source %q", source)
	}
	for _, attr := range spec.Attrs {
		if !src.schema.Has(attr) {
			b.mu.Unlock()
			return nil, fmt.Errorf("broker: source %q has no attribute %q (schema %v)", source, attr, src.schema)
		}
	}
	if b.subs[source][app] != nil {
		b.mu.Unlock()
		return nil, fmt.Errorf("broker: app %q already subscribed to %q", app, source)
	}
	// The wire protocol labels every destination with a u8 count; the
	// embedded broker mirrors the limit so a group accepted here stays
	// deliverable over any transport.
	if len(b.subs[source]) >= wire.MaxDestinations {
		b.mu.Unlock()
		return nil, fmt.Errorf("broker: source %q already has %d subscribers (wire limit)", source, wire.MaxDestinations)
	}
	if queue <= 0 {
		queue = b.cfg.SubscriberQueue
	}
	if queue > b.cfg.MaxSubscriberQueue {
		queue = b.cfg.MaxSubscriberQueue
	}
	sub := &Sub{
		b:          b,
		app:        app,
		source:     source,
		schema:     src.schema,
		spec:       spec,
		out:        make(chan Delivery, queue),
		fin:        make(chan struct{}),
		done:       make(chan struct{}),
		resume:     o.Resume,
		resumeFrom: o.ResumeFrom,
	}
	if b.tel != nil {
		sub.lat = telemetry.NewLatencyPair()
	}
	if b.cfg.Policy == Degrade {
		if sc, ok := f.(adapt.Scalable); ok {
			gov, gerr := adapt.NewGovernor(b.cfg.Degrade)
			if gerr != nil {
				b.mu.Unlock()
				return nil, fmt.Errorf("broker: %w", gerr)
			}
			sub.gov, sub.scalable = gov, sc
			sub.scaleKick = make(chan struct{}, 1)
			sub.targetScale.Store(math.Float64bits(1))
			sub.applied.Store(math.Float64bits(1))
		}
	}
	if sub.resume {
		sub.replay = make(chan Delivery)
	}
	if b.subs[source] == nil {
		b.subs[source] = make(map[string]*Sub)
	}
	// Registered before the filter joins the group, so the first delivery
	// the engine decides for this app finds its queue.
	b.subs[source][app] = sub
	src.subEpoch++
	b.mu.Unlock()

	err = b.rt.ControlContext(ctx, source, func(e *core.Engine) error {
		if err := e.AddFilter(f); err != nil {
			return err
		}
		if sub.resume {
			// The splice fence: this closure runs on the owning shard
			// worker at a tuple boundary, so no append for this source can
			// interleave — history is everything before this point, live is
			// everything after.
			sub.spliceTo = b.log.NextOffset(source)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The cancelled wait may have left the AddFilter enqueued — it
			// will still run at its tuple boundary. Retract it behind it
			// (same ring, so the retraction is ordered after the join) so
			// no ghost member coordinates the group; the registry entry —
			// and with it the app name — is released only once the
			// retraction settled.
			go func() {
				_ = b.rt.Control(source, func(e *core.Engine) error { return e.RemoveFilter(app) })
				b.dropSubEntry(sub)
			}()
		} else {
			b.dropSubEntry(sub)
		}
		return nil, fmt.Errorf("broker: joining group of %q: %w", source, err)
	}
	if sub.resume {
		go sub.runReplay()
	}
	if sub.gov != nil {
		go sub.scaleLoop()
	}
	return sub, nil
}

// runReplay streams the log records of [resumeFrom, spliceTo) addressed
// to this app onto the replay channel, in offset order, then closes it.
// Records naming other apps only (delivered while this one was away) are
// skipped. A decode or read failure is recorded in replayErr before the
// close, so the consumer surfaces it instead of silently skipping to the
// live stream over a gap.
func (s *Sub) runReplay() {
	defer close(s.replay)
	err := s.b.log.Read(s.source, s.resumeFrom, s.spliceTo, func(off uint64, payload []byte) error {
		t, dests, _, err := wire.DecodeTransmission(s.schema, payload)
		if err != nil {
			return fmt.Errorf("broker: replaying %q at offset %d: %w", s.source, off, err)
		}
		if !slices.Contains(dests, s.app) {
			return nil
		}
		select {
		case s.replay <- Delivery{Tuple: t, Destinations: dests, Offset: off}:
			return nil
		case <-s.done:
			return errReplayAborted
		}
	})
	if err != nil && !errors.Is(err, errReplayAborted) {
		s.replayErr = err
	}
}

// errReplayAborted marks a replay cut short by the subscription's own
// departure — an orderly exit, not a failure.
var errReplayAborted = errors.New("broker: replay aborted by departure")

// dropSubEntry removes a subscription from the registry (the engine side
// has already been handled — or never joined).
func (b *Broker) dropSubEntry(sub *Sub) {
	b.mu.Lock()
	if m := b.subs[sub.source]; m != nil && m[sub.app] == sub {
		delete(m, sub.app)
		if src := b.sources[sub.source]; src != nil {
			src.subEpoch++
		}
	}
	b.mu.Unlock()
}

// App returns the application name of this subscription.
func (s *Sub) App() string { return s.app }

// Source returns the subscribed source name.
func (s *Sub) Source() string { return s.source }

// Schema returns the source schema.
func (s *Sub) Schema() *tuple.Schema { return s.schema }

// Spec returns the parsed quality specification the subscription joined
// with.
func (s *Sub) Spec() quality.Spec { return s.spec }

// QueueDepth returns the delivery queue depth in effect (the requested
// depth after defaulting and clamping).
func (s *Sub) QueueDepth() int { return cap(s.out) }

// Dropped returns the deliveries lost to the drop slow-consumer policy
// (or to departure).
func (s *Sub) Dropped() uint64 { return s.dropped.Load() }

// QoS returns the quality scale currently applied to this subscription
// by the Degrade policy: 1 means full fidelity, larger means the
// effective spec has been coarsened by that factor. Always 1 under other
// policies or when the subscription's filter cannot scale.
func (s *Sub) QoS() float64 {
	if s.gov == nil {
		return 1
	}
	return math.Float64frombits(s.applied.Load())
}

// Recv blocks for the next delivery until ctx is done. It returns
// ErrStreamEnded once the stream ends gracefully (the source finished,
// the broker closed, or this subscription left the group).
func (s *Sub) Recv(ctx context.Context) (Delivery, error) {
	var d Delivery
	err := s.RecvInto(ctx, &d)
	return d, err
}

// RecvInto is Recv decoding into d. The embedded transport shares tuples
// and label slices immutably, so unlike the networked RecvInto there is
// no aliasing hazard; the variant exists so both transports satisfy one
// interface with the allocation profile each can offer.
func (s *Sub) RecvInto(ctx context.Context, d *Delivery) error {
	deliver := func(dv Delivery) {
		d.Tuple, d.Destinations, d.Offset = dv.Tuple, dv.Destinations, dv.Offset
		d.ReceivedAt = time.Now()
	}
	// History first: a resuming subscription drains the replay channel
	// before any live delivery. Live deliveries buffer in out meanwhile
	// (they all carry offsets >= spliceTo), so the two phases tile into
	// one seamless stream. The consumer side of a Sub is single-threaded,
	// so clearing s.replay after observing its close is safe — and the
	// close happens-before that read, making replayErr visible. replayErr
	// is only read once s.replay is nil (i.e. after the close was
	// observed), and a failed replay is terminal: falling through to the
	// live stream would silently cross the gap.
	if s.replay == nil && s.replayErr != nil {
		return s.replayErr
	}
	for s.replay != nil {
		select {
		case dv, ok := <-s.replay:
			if !ok {
				s.replay = nil
				if s.replayErr != nil {
					return s.replayErr
				}
				continue // fall through to the live stream
			}
			deliver(dv)
			return nil
		case <-s.done:
			return s.endErr()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case dv := <-s.out:
		deliver(dv)
		return nil
	case <-s.fin:
		// The stream has ended; drain what is still buffered before
		// reporting the end.
		select {
		case dv := <-s.out:
			deliver(dv)
			return nil
		default:
			return s.endErr()
		}
	case <-s.done:
		return s.endErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// endErr reports why the stream ended: a wrapped ErrEvicted when the
// broker force-detached the subscription, plain ErrStreamEnded otherwise.
func (s *Sub) endErr() error {
	if msg := s.evictMsg.Load(); msg != nil {
		return fmt.Errorf("%w: %s", ErrEvicted, *msg)
	}
	return ErrStreamEnded
}

// Close leaves the group: the subscription's filter is removed from the
// live engine at a tuple boundary, re-deriving the group for the
// remaining members, and later deliveries stop. Outputs the group still
// owes the departed application decide normally; their labels are pruned
// from the remaining subscribers' deliveries, exactly as on the wire.
func (s *Sub) Close(ctx context.Context) error {
	s.leaveOnce.Do(func() { close(s.done) })
	s.b.mu.RLock()
	registered := s.b.subs[s.source][s.app] == s
	s.b.mu.RUnlock()
	if !registered {
		// Already detached — by eviction, a failed join's cleanup, or a
		// previous Close; the engine no longer knows this member.
		return nil
	}
	err := s.b.rt.ControlContext(ctx, s.source, func(e *core.Engine) error { return e.RemoveFilter(s.app) })
	s.b.dropSubEntry(s)
	if err != nil {
		// The source may have finished (or the broker drained)
		// concurrently; its teardown already retired the whole group.
		if errors.Is(err, shard.ErrSourceFinished) || errors.Is(err, shard.ErrUnknownSource) || errors.Is(err, shard.ErrDrained) {
			return nil
		}
		return err
	}
	return nil
}

// send enqueues one delivery under the slow-consumer policy. It is
// called from shard workers; deliveries for one source arrive from one
// worker at a time, in release order. A blocking send is bounded by
// Config.EvictTimeout: a subscriber that cannot absorb a delivery
// within it is evicted (marked departed and detached asynchronously),
// exactly as the server disconnects a subscriber that cannot absorb a
// frame within its write timeout — otherwise an abandoned subscription
// would park the worker forever.
func (s *Sub) send(d Delivery) {
	select {
	case <-s.done:
		s.dropped.Add(1)
		return
	default:
	}
	if s.b.cfg.Policy == Drop {
		select {
		case s.out <- d:
		default:
			s.dropDelivery()
		}
		return
	}
	if s.gov != nil {
		// Degrade: sample pressure before the (blocking) hand-off so a
		// filling queue coarsens the spec before it wedges the worker.
		s.observePressure()
	}
	select {
	case s.out <- d:
		return
	case <-s.done:
		s.dropped.Add(1)
		return
	default:
	}
	if s.b.cfg.EvictTimeout < 0 {
		select {
		case s.out <- d:
		case <-s.done:
			s.dropped.Add(1)
		}
		return
	}
	t := time.NewTimer(s.b.cfg.EvictTimeout)
	defer t.Stop()
	select {
	case s.out <- d:
	case <-s.done:
		s.dropped.Add(1)
	case <-t.C:
		s.dropped.Add(1)
		s.evictAsync(fmt.Sprintf("delivery blocked longer than EvictTimeout (%v)", s.b.cfg.EvictTimeout))
	}
}

// dropDelivery counts a drop-policy loss and evicts the subscription once
// the configured threshold is crossed — a consumer that persistently
// cannot keep up learns it was cut off instead of losing data silently.
func (s *Sub) dropDelivery() {
	n := s.dropped.Add(1)
	if limit := s.b.cfg.EvictAfterDrops; limit > 0 && n >= uint64(limit) {
		s.evictAsync(fmt.Sprintf("%d deliveries dropped (limit %d)", n, limit))
	}
}

// evictAsync force-detaches the subscription: the eviction reason is
// latched (so Recv surfaces ErrEvicted rather than a bare stream end),
// the subscription is marked departed, and the engine-side retraction is
// handed to a goroutine — it must not run on the calling shard worker,
// since Control would enqueue into the very ring that worker drains.
func (s *Sub) evictAsync(reason string) {
	s.evictOnce.Do(func() {
		select {
		case <-s.done:
			// Already departed (Close, or broker teardown); nothing to
			// report and nothing left to detach.
			return
		default:
		}
		msg := reason
		s.evictMsg.Store(&msg)
		s.b.evictedSubs.Add(1)
		s.leaveOnce.Do(func() { close(s.done) })
		go func() {
			err := s.b.rt.Control(s.source, func(e *core.Engine) error { return e.RemoveFilter(s.app) })
			_ = err // the source may already be finishing; teardown retires the group
			s.b.dropSubEntry(s)
		}()
	})
}

// observePressure feeds the degrade governor one sample (queue occupancy
// plus delivery p99) and, on a verdict, publishes the new target scale to
// scaleLoop. Called only from the source's shard worker, which serializes
// all sends for this subscription, so the governor needs no lock.
func (s *Sub) observePressure() {
	var p99 time.Duration
	if s.lat != nil {
		p99 = s.lat.Snapshot().P99
	}
	scale, changed := s.gov.Observe(time.Now(), len(s.out), cap(s.out), p99)
	if !changed {
		return
	}
	s.targetScale.Store(math.Float64bits(scale))
	select {
	case s.scaleKick <- struct{}{}:
	default: // a kick is already pending; it will read the newest target
	}
}

// scaleLoop applies governor verdicts to the live filter from its own
// goroutine: SetScale must run on the owning shard worker via Control at
// a tuple boundary, and calling Control from the worker itself (inside
// send) would deadlock. Targets are absolute, so coalesced kicks applying
// only the newest value are correct.
func (s *Sub) scaleLoop() {
	for {
		select {
		case <-s.done:
			return
		case <-s.fin:
			return
		case <-s.scaleKick:
		}
		target := math.Float64frombits(s.targetScale.Load())
		err := s.b.rt.Control(s.source, func(e *core.Engine) error { return s.scalable.SetScale(target) })
		if err != nil {
			continue // source finishing or broker draining; nothing to scale
		}
		s.applied.Store(math.Float64bits(target))
	}
}

// finishStream marks the end of the stream after the source's last
// flush: pending deliveries remain receivable, then Recv returns
// ErrStreamEnded. The delivery channel itself is never closed, so even
// an aborted teardown racing a blocked sink send stays safe.
func (s *Sub) finishStream() {
	s.finOnce.Do(func() { close(s.fin) })
}

// sink receives batched released transmissions from the shard workers
// and fans each out to the live subscriptions named in its destination
// list. Per-source calls are serialized by the owning worker, so each
// subscription's stream arrives in release order. The live-target cache
// mirrors the server's sink: targets and labels are recomputed only when
// the membership epoch or the destination pattern changes.
func (b *Broker) sink(batch []shard.Out) {
	var fanStart time.Time
	if b.tel.Sample(telemetry.StageFanout) {
		fanStart = time.Now()
	}
	for i := range batch {
		o := &batch[i]
		b.mu.RLock()
		src := b.sources[o.Source]
		var targets []*Sub
		var labels []string
		if src != nil {
			st := &src.sink
			if st.epoch != src.subEpoch || !slices.Equal(st.inDests, o.Tr.Destinations) {
				st.epoch, st.inDests = src.subEpoch, o.Tr.Destinations
				// Fresh slices on recompute: queued Deliveries alias the
				// previous labels slice, which must stay immutable. Sized
				// once: the live group is at most the destination list.
				n := len(o.Tr.Destinations)
				st.targets, st.labels = make([]*Sub, 0, n), make([]string, 0, n)
				for _, app := range o.Tr.Destinations {
					if sub := b.subs[o.Source][app]; sub != nil {
						st.targets = append(st.targets, sub)
						st.labels = append(st.labels, app)
					}
				}
			}
			targets, labels = st.targets, st.labels
		}
		b.mu.RUnlock()
		if len(targets) == 0 {
			continue
		}
		// Durable brokers append before fan-out (outside the registry lock;
		// sinkState is owned by this worker). The log carries exactly the
		// bytes a networked subscriber receives — the transmission with its
		// labels pruned to the live group — so replays are byte-equivalent
		// across transports. An append failure degrades durability, not
		// delivery: it is counted and the delivery proceeds offset-less.
		var off uint64
		if b.log != nil {
			st := &src.sink
			payload, err := st.enc.AppendTransmission(st.encBuf[:0], st.epoch, o.Tr.Tuple, labels)
			if err == nil {
				st.encBuf = payload
				off, err = b.log.Append(o.Source, payload)
			}
			if err != nil {
				b.logAppendErrs.Add(1)
				off = 0
			}
		}
		if b.tel != nil {
			// The embedded delivery point is the queue hand-off: one
			// clock read per transmission feeds the group and aggregate
			// estimators; each target's session estimator sees the same
			// instant (the enqueue loop below is non-blocking in the
			// common case).
			d := time.Since(o.Tr.Tuple.TS)
			src.lat.Observe(d)
			for range targets {
				b.tel.ObserveDelivery(d)
			}
			for _, sub := range targets {
				sub.lat.Observe(d)
			}
		}
		for _, sub := range targets {
			sub.send(Delivery{Tuple: o.Tr.Tuple, Destinations: labels, Offset: off})
		}
	}
	if !fanStart.IsZero() {
		b.tel.Observe(telemetry.StageFanout, time.Since(fanStart))
	}
}

// Close drains the broker: open sources are finished (flushing their
// tails through their subscribers), the shard runtime drains, and every
// remaining subscription stream ends. ctx bounds the graceful drain; on
// expiry the runtime is cancelled and the remaining work aborted.
// Publishes racing Close fail with an error rather than being silently
// dropped.
func (b *Broker) Close(ctx context.Context) error {
	b.closeOnce.Do(func() { b.closeErr = b.close(ctx) })
	return b.closeErr
}

func (b *Broker) close(ctx context.Context) error {
	// Stop flow-gap expiry first: Close owns the remaining finishes, and
	// an eviction racing the drain would only duplicate them.
	if b.wheel != nil {
		close(b.evictStop)
		b.evictWG.Wait()
	}
	b.mu.Lock()
	b.closed = true
	srcs := make([]*Source, 0, len(b.sources))
	for _, src := range b.sources {
		srcs = append(srcs, src)
	}
	b.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		var errs []error
		for _, src := range srcs {
			src.mu.Lock()
			finished := src.finished
			src.mu.Unlock()
			if finished {
				continue
			}
			if err := src.Finish(context.Background()); err != nil {
				errs = append(errs, err)
			}
		}
		if err := b.rt.Drain(); err != nil {
			errs = append(errs, err)
		}
		done <- errors.Join(errs...)
	}()

	var drainErr error
	aborted := false
	select {
	case drainErr = <-done:
	case <-ctx.Done():
		// Hard abort: cancel the runtime so blocked feeds, controls and
		// finish waits unwind, and mark every subscription departed so a
		// worker parked in a blocking send (full queue, no consumer) is
		// released — context cancellation alone cannot reach it.
		aborted = true
		b.cancel()
		b.leaveAll()
		drainErr = <-done
	}
	b.cancel()

	// The workers are gone, so no sink append can race the log close.
	// Replay goroutines may still be reading — reads work on snapshots
	// (os.ReadFile), so they are unaffected.
	if b.log != nil {
		if err := b.log.Close(); err != nil {
			drainErr = errors.Join(drainErr, err)
		}
	}

	// Workers are gone, so no sink flush can race these closes; any
	// subscription still open gets its stream ended.
	b.mu.Lock()
	var rest []*Sub
	for _, m := range b.subs {
		for _, sub := range m {
			rest = append(rest, sub)
		}
	}
	b.subs = make(map[string]map[string]*Sub)
	b.mu.Unlock()
	for _, sub := range rest {
		sub.finishStream()
	}
	if aborted {
		// The abort cancelled the runtime on purpose; surfacing the
		// cancellation itself would make every bounded Close fail.
		return stripCtxErrs(drainErr)
	}
	return drainErr
}

// leaveAll marks every subscription departed, releasing any shard worker
// blocked on a full delivery queue.
func (b *Broker) leaveAll() {
	b.mu.RLock()
	var all []*Sub
	for _, m := range b.subs {
		for _, sub := range m {
			all = append(all, sub)
		}
	}
	b.mu.RUnlock()
	for _, sub := range all {
		sub.leaveOnce.Do(func() { close(sub.done) })
	}
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
