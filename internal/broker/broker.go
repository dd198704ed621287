// Package broker is the embedded (in-process) transport adapter over the
// session core (internal/session): no sockets in the loop. The core owns
// the session semantics — registries, join/leave at tuple boundaries,
// label pruning, slow-consumer policies, the durable log and resume fence,
// flow-gap expiry; this package adds what is particular to a consumer
// that lives in the same process:
//
//   - Publish validates tuples (schema, strictly increasing timestamps —
//     the contract the networked server enforces at ingest) and submits
//     them to the shard runtime synchronously;
//   - a queued item is a Delivery sharing the tuple and the pruned label
//     slice immutably, stamped with the sink call's instant; Recv hands it
//     over;
//   - a resuming subscription reads its history from the log on a replay
//     channel that Recv drains before the live queue.
//
// The facade's parity suite asserts that this transport and the TCP one
// release byte-identical sequences per subscriber.
package broker

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/quality"
	"gasf/internal/session"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// evictTimeout bounds how long a blocking delivery waits on a full
// subscription queue before the subscriber is treated as departed and
// evicted — the in-process counterpart of the server's write timeout, and
// what keeps an abandoned blocking subscription from wedging a shard
// worker (and with it Finish and a graceful Close) forever. A variable
// only so the package's tests can shorten it.
var evictTimeout = 10 * time.Second

// ErrStreamEnded reports a graceful end of a subscription stream (the
// source finished or the broker closed).
var ErrStreamEnded = errors.New("broker: stream ended")

// ErrEvicted reports that the broker force-detached the subscription —
// it blocked past the eviction timeout, or exceeded
// Config.EvictAfterDrops under the drop policy. Recv errors wrap it with
// the reason.
var ErrEvicted = errors.New("broker: subscriber evicted")

// Broker is the embedded streaming runtime. Create with New, open
// publishers with OpenSource, join groups with Subscribe, stop with
// Close.
type Broker struct {
	core *session.Core[session.Delivery]
}

// New starts an embedded broker. The transport's own settings —
// BlockTimeout, OnExpire, ShareLabels, KeepResults — are filled in here;
// cfg carries the rest. With cfg.DataDir set the durable log is opened (and
// recovered) first, so a failed recovery surfaces here rather than on the
// first publish. A source silent past cfg.SourceTimeout is finished as if
// its owner had called Finish, for embedded publishers that abandon a
// stream without finishing it.
func New(cfg session.Config) (*Broker, error) {
	cfg.BlockTimeout = evictTimeout
	// Queued Deliveries alias the label slice of the fan-out view.
	cfg.ShareLabels = true
	// Results publishes every source's full engine result.
	cfg.KeepResults = true
	// Off the wheel's advance loop, so a long tail flush cannot stall the
	// expiry of other sources.
	cfg.OnExpire = func(owner any, _ time.Duration) { go owner.(*Source).Finish(context.Background()) }
	b := &Broker{}
	c, err := session.New[session.Delivery](cfg, b.sink)
	if err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	b.core = c
	return b, nil
}

// Stats returns the session counters (sources expired by the flow-gap
// wheel, subscriptions evicted, deliveries dropped, log append failures).
func (b *Broker) Stats() session.Stats { return b.core.Stats() }

// Results returns the per-source engine results accumulated so far; call
// after the sources finished (or after Close) for settled results.
// Unlike the networked server, the embedded broker retains finished
// sources, so batch runs can read their results.
func (b *Broker) Results() map[string]*core.Result { return b.core.Runtime().Results() }

// Metrics returns the per-shard runtime counters.
func (b *Broker) Metrics() []shard.Snapshot { return b.core.Runtime().Metrics() }

// Telemetry snapshots the stage-timing histograms and delivery-latency
// quantiles (a zero snapshot when telemetry is disabled). The embedded
// delivery point is the queue hand-off in the sink, so delivery latency
// here spans publish to enqueue, not a socket write.
func (b *Broker) Telemetry() telemetry.Snapshot { return b.core.Telemetry().Snapshot() }

// Source is one open publisher session.
type Source struct {
	b *Broker
	s session.Source[session.Delivery]

	mu       sync.Mutex
	lastTS   time.Time
	finished bool
	one      [1]*tuple.Tuple // Publish scratch

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
	src := &Source{b: b, finDone: make(chan struct{})}
	src.s.Name, src.s.Schema, src.s.Owner = name, schema, src
	if err := b.core.OpenSource(&src.s); err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	return src, nil
}

// Name returns the source name.
func (s *Source) Name() string { return s.s.Name }

// Schema returns the advertised schema.
func (s *Source) Schema() *tuple.Schema { return s.s.Schema }

// Publish enqueues one tuple for the source's shard, blocking under
// backpressure until either ctx or the broker is done. Timestamps must
// be strictly increasing and the tuple must use the advertised schema.
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
		return fmt.Errorf("broker: source %q finished", s.s.Name)
	}
	lastTS := s.lastTS
	for _, t := range tuples {
		if t == nil {
			return fmt.Errorf("broker: nil tuple for source %q", s.s.Name)
		}
		if !t.Schema().Equal(s.s.Schema) {
			return fmt.Errorf("broker: tuple %d does not use the schema %v advertised by source %q", t.Seq, s.s.Schema, s.s.Name)
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
	// The busy flag covers the submit, so a source stalled in
	// backpressure is never mistaken for a silent one.
	s.b.core.Wheel().Touch(&s.s.Gap)
	s.s.Gap.SetBusy(true)
	err := s.b.core.Runtime().SubmitBatchContext(ctx, s.s.Name, tuples)
	s.s.Gap.SetBusy(false)
	return err
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
		return fmt.Errorf("broker: source %q finished", s.s.Name)
	}
	// A barrier is proof of life even with nothing published.
	s.b.core.Wheel().Touch(&s.s.Gap)
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
		go func() {
			_, s.finErr = s.b.core.FinishSource(&s.s, false)
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
	return b.core.Runtime().ControlContext(ctx, source, func(e *core.Engine) error { return e.AddFilter(f) })
}

// Sub is one live subscription.
type Sub struct {
	b    *Broker
	m    *session.Member[session.Delivery]
	spec quality.Spec

	// replay carries a resuming subscription's history; runReplay closes
	// it at the fence (replayErr is written first, and is safe to read
	// after observing the close). Recv drains replay before touching live
	// deliveries; the consumer side of a Sub is single-threaded, as on
	// every other transport.
	replay    chan session.Delivery
	replayErr error

	applied atomic.Uint64 // float64 bits of the scale in effect
}

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
// specification, at a tuple boundary: the subscriber sees exactly the
// tuples published after Subscribe returns. With o.Resume set (durable
// brokers only) the subscription first replays the source's history from
// o.ResumeFrom up to the join fence, then continues live — gapless and
// duplicate-free.
func (b *Broker) Subscribe(ctx context.Context, app, source string, spec quality.Spec, o SubOptions) (*Sub, error) {
	if o.Queue < 0 {
		return nil, fmt.Errorf("broker: negative queue depth %d", o.Queue)
	}
	sub := &Sub{b: b, spec: spec}
	sub.applied.Store(math.Float64bits(1))
	sub.m = b.core.NewMember(app, source, o.Queue, sub)
	sub.m.Resume, sub.m.ResumeFrom = o.Resume, o.ResumeFrom
	if o.Resume {
		sub.replay = make(chan session.Delivery)
	}
	if err := b.core.Join(ctx, sub.m, spec); err != nil {
		return nil, fmt.Errorf("broker: %w", err)
	}
	if o.Resume {
		go sub.runReplay()
	}
	return sub, nil
}

// QoSApplied implements session.Peer.
func (s *Sub) QoSApplied(scale float64) { s.applied.Store(math.Float64bits(scale)) }

// runReplay decodes the member's history (session.Core.Replay) onto the
// replay channel, in offset order, then closes it. A decode or read
// failure is recorded in replayErr before the close, so the consumer
// surfaces it instead of silently skipping to the live stream over a
// gap. It ends at the fence or with the subscription.
func (s *Sub) runReplay() {
	defer close(s.replay)
	m := s.m
	err := s.b.core.Replay(m, func(off uint64, payload []byte) error {
		t, dests, _, err := wire.DecodeTransmission(m.Schema, payload)
		if err != nil {
			return fmt.Errorf("broker: replaying %q at offset %d: %w", m.Source, off, err)
		}
		select {
		case s.replay <- session.Delivery{Tuple: t, Destinations: dests, ReceivedAt: m.SpliceAt, Offset: off}:
			return nil
		case <-m.Done():
			return session.ErrReplayAborted
		}
	})
	if err != nil && !errors.Is(err, session.ErrReplayAborted) {
		s.replayErr = err
	}
}

// App returns the application name of this subscription.
func (s *Sub) App() string { return s.m.App }

// Source returns the subscribed source name.
func (s *Sub) Source() string { return s.m.Source }

// Schema returns the source schema.
func (s *Sub) Schema() *tuple.Schema { return s.m.Schema }

// Spec returns the parsed quality specification the subscription joined
// with.
func (s *Sub) Spec() quality.Spec { return s.spec }

// QueueDepth returns the delivery queue depth in effect (the requested
// depth after defaulting and clamping).
func (s *Sub) QueueDepth() int { return s.m.QueueCap() }

// Dropped returns the deliveries lost to the drop slow-consumer policy
// (or to departure).
func (s *Sub) Dropped() uint64 { return s.m.Dropped() }

// QoS returns the quality scale currently applied to this subscription
// by the Degrade policy: 1 means full fidelity, larger means the
// effective spec has been coarsened by that factor. Always 1 under other
// policies or when the subscription's filter cannot scale.
func (s *Sub) QoS() float64 { return math.Float64frombits(s.applied.Load()) }

// Recv blocks for the next delivery until ctx is done. It returns
// ErrStreamEnded once the stream ends gracefully (the source finished,
// the broker closed, or this subscription left the group).
func (s *Sub) Recv(ctx context.Context) (session.Delivery, error) {
	var d session.Delivery
	err := s.RecvInto(ctx, &d)
	return d, err
}

// RecvInto is Recv decoding into d. The embedded transport shares tuples
// and label slices immutably, so unlike the networked RecvInto there is
// no aliasing hazard; the variant exists so both transports satisfy one
// interface with the allocation profile each can offer.
func (s *Sub) RecvInto(ctx context.Context, d *session.Delivery) error {
	// History first: a resuming subscription drains the replay channel
	// before any live delivery. Live deliveries buffer in the queue
	// meanwhile (they all carry offsets at or above the fence), so the two
	// phases tile into one seamless stream. s.replay is cleared once its
	// close was observed — which makes replayErr visible — and a failed
	// replay is terminal: falling through to the live stream would
	// silently cross the gap.
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
			*d = dv
			return nil
		case <-s.m.Done():
			return s.endErr()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// The common case costs two non-blocking checks: a departure first,
	// so a member whose departure is visible never receives again, then
	// the queue. Only an empty queue waits on every channel at once.
	if s.m.Departed() {
		return s.endErr()
	}
	select {
	case dv := <-s.m.Queue():
		*d = dv
		return nil
	default:
	}
	var dv session.Delivery
	select {
	case dv = <-s.m.Queue():
	case <-s.m.Fin():
		// The stream has ended; what is still buffered drains before the
		// end is reported.
		select {
		case dv = <-s.m.Queue():
		default:
			return s.endErr()
		}
	case <-s.m.Done():
		return s.endErr()
	case <-ctx.Done():
		return ctx.Err()
	}
	// The departure may have closed while this call waited.
	if s.m.Departed() {
		return s.endErr()
	}
	*d = dv
	return nil
}

// endErr reports why the stream ended: a wrapped ErrEvicted when the
// broker force-detached the subscription, plain ErrStreamEnded otherwise.
func (s *Sub) endErr() error {
	if reason := s.m.EvictReason(); reason != "" {
		return fmt.Errorf("%w: %s", ErrEvicted, reason)
	}
	return ErrStreamEnded
}

// Close leaves the group: the subscription's filter is removed from the
// live engine at a tuple boundary, re-deriving the group for the
// remaining members, and later deliveries stop. Outputs the group still
// owes the departed application decide normally; their labels are pruned
// from the remaining subscribers' deliveries, exactly as on the wire.
func (s *Sub) Close(ctx context.Context) error { return s.b.core.Leave(ctx, s.m) }

// sink receives batched released transmissions from the shard workers
// and fans each out to the live subscriptions named in its destination
// list. Per-source calls are serialized by the owning worker, so each
// subscription's stream arrives in release order.
func (b *Broker) sink(batch []shard.Out) {
	c := b.core
	tel := c.Telemetry()
	// One clock read per call: every delivery of the batch is stamped
	// with the instant its hand-off began, as its ReceivedAt and as the
	// delivery point latency telemetry measures to.
	now := time.Now()
	var fanStart time.Time
	if tel.Sample(telemetry.StageFanout) {
		fanStart = now
	}
	// The shared latency views take one batch per run of one source's
	// transmissions; each member's own estimator is this worker's.
	var (
		lat   telemetry.LatencyBatch
		group *session.Source[session.Delivery]
	)
	fold := func() {
		group.Lat.Fold(&lat)
		tel.Delivery().Fold(&lat)
		lat.Reset()
	}
	for i := range batch {
		o := &batch[i]
		src := c.Route(o.Source, o.Tr.Destinations)
		if src == nil || len(src.Targets) == 0 {
			continue
		}
		var off uint64
		if c.Log() != nil {
			payload, err := src.Enc.AppendTransmission(src.Scratch[:0], src.Epoch, o.Tr.Tuple, src.Labels)
			if err == nil {
				src.Scratch = payload
				off, _ = c.AppendLog(o.Source, payload)
			}
		}
		if tel != nil {
			if src != group && lat.Count() != 0 {
				fold()
			}
			group = src
			d := now.Sub(o.Tr.Tuple.TS)
			lat.ObserveN(d, len(src.Targets))
			for _, m := range src.Targets {
				m.Lat.Observe(d)
			}
		}
		dv := session.Delivery{Tuple: o.Tr.Tuple, Destinations: src.Labels, ReceivedAt: now, Offset: off}
		for _, m := range src.Targets {
			m.Send(dv, 1)
		}
	}
	if lat.Count() != 0 {
		fold()
	}
	if !fanStart.IsZero() {
		tel.Observe(telemetry.StageFanout, time.Since(fanStart))
	}
}

// Close drains the broker: open sources are finished (flushing their
// tails through their subscribers), the shard runtime drains, and every
// remaining subscription stream ends. ctx bounds the graceful drain; on
// expiry the runtime is cancelled and the remaining work aborted.
// Publishes racing Close fail with an error rather than being silently
// dropped.
func (b *Broker) Close(ctx context.Context) error {
	return b.core.Close(ctx, func(open []*session.Source[session.Delivery]) error {
		var errs []error
		for _, src := range open {
			errs = append(errs, src.Owner.(*Source).Finish(context.Background()))
		}
		return errors.Join(errs...)
	}, nil)
}
