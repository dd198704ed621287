package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/core"
	"gasf/internal/quality"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// ErrResumeUnavailable reports a join rejected because the requested
// resume cannot be served: the core has no durable log, or the offset
// lies beyond the log head. ErrAlreadySubscribed reports one rejected
// because the (app, source) pair is held by a live member — transient
// while a departure is settling. Both messages double as the wire tag of
// a rejected TCP handshake (errors wrap them as "%w: detail", so the
// rendered text starts with the tag); match with errors.Is, never prose.
var (
	ErrResumeUnavailable = errors.New("resume unavailable")
	ErrAlreadySubscribed = errors.New("already subscribed")
)

// Peer is the transport end of a member, as far as the core calls it.
type Peer interface {
	// QoSApplied announces that the member's filter now runs at scale (1
	// is full fidelity). Called from the member's applier goroutine after
	// the change took effect at a tuple boundary.
	QoSApplied(scale float64)
}

// Member is one subscription: a bounded queue of T between the source's
// shard worker (Send, from the adapter's sink) and the adapter's consumer
// side, plus the departure, end-of-stream and eviction latches both sides
// agree on. A member made with NewMember and never joined lives outside
// the registry and the engine (an edge's relay members, fed by their
// upstream leg); it uses the queue and the policy send only.
type Member[T any] struct {
	App, Source string
	Peer        Peer
	// Schema is the source's schema, set by Join.
	Schema *tuple.Schema
	// Stage is scratch for the source's shard worker: an adapter that
	// hands off once per flush cycle accumulates the cycle's item here.
	// The core never reads it.
	Stage T
	// Lat estimates this member's delivery-latency quantiles; the adapter
	// feeds it at its delivery point, from the one goroutine that delivers
	// the member's stream (the pair's single writer), and the governor
	// reads its p99. Nil when telemetry is disabled.
	Lat *telemetry.LatencyPair
	// Group is the shared view the member's deliveries also count in:
	// its source's Lat, set by Join, or whatever an unjoined member's
	// adapter sets before the first delivery. The adapter folds batches
	// into it, never single deliveries. Nil when telemetry is disabled.
	Group *telemetry.LatencyHist
	// Resume asks for the source's log records in [ResumeFrom, SpliceTo)
	// addressed to App before the live stream; set both before Join.
	// SpliceTo is the fence Join captures inside the AddFilter control
	// closure — on the owning shard worker at a tuple boundary, the
	// goroutine that appends to the log — so every record below it was
	// released before App joined and every live item carries an offset at
	// or above it: history plus live tile the log exactly, gapless and
	// duplicate-free.
	Resume               bool
	ResumeFrom, SpliceTo uint64
	// SpliceAt is the instant Join captured SpliceTo: after every record
	// below the fence was published, before any live item was routed to
	// the member. A transport that stamps replayed items with it keeps
	// their receive instants ordered before the live ones.
	SpliceAt time.Time

	c     *Core[T]
	q     chan T
	depth int
	// done closes when the member departs (leave, eviction, hard abort):
	// sends stop blocking on it and count as lost. fin closes at the end
	// of the stream, after the source's final flush; q itself is never
	// closed, so a send racing a teardown cannot panic, and what q still
	// holds stays receivable after fin.
	done, fin chan struct{}
	// joined is set once, under Core.mu, when Join registers the member
	// (reserving the app name); active when its filter has joined the
	// group, from when Route includes it. Both are guarded by Core.mu.
	joined, active                            bool
	leaveOnce, finOnce, detachOnce, evictOnce sync.Once
	dropped                                   atomic.Uint64
	// evictMsg latches the eviction reason before done closes, so whoever
	// the close unblocks observes it.
	evictMsg atomic.Pointer[string]

	// Degrade state (nil/zero unless the policy is Degrade and the filter
	// is Scalable). Only the source's shard worker drives the governor —
	// it serializes every Send — so it needs no lock. The verdict crosses
	// to scaleLoop through targetScale (float64 bits) and scaleKick.
	gov         *adapt.Governor
	scalable    adapt.Scalable
	scaleKick   chan struct{}
	targetScale atomic.Uint64
}

// NewMember makes a member whose queue will hold the requested number of
// items (0 takes Config.SubscriberQueue; clamped to
// Config.MaxSubscriberQueue). The queue itself is allocated by Join, once
// the request has been validated — a rejected handshake must not cost a
// queue — or by OpenQueue for a member that is never joined.
func (c *Core[T]) NewMember(app, source string, queue int, peer Peer) *Member[T] {
	if queue <= 0 {
		queue = c.cfg.SubscriberQueue
	}
	m := &Member[T]{
		App: app, Source: source, Peer: peer,
		c:     c,
		depth: min(queue, c.cfg.MaxSubscriberQueue),
		done:  make(chan struct{}),
		fin:   make(chan struct{}),
	}
	if c.tel != nil {
		m.Lat = telemetry.NewLatencyPair()
	}
	return m
}

// OpenQueue allocates the queue of a member that stays outside the
// registry; call it before anything can Send to the member.
func (m *Member[T]) OpenQueue() { m.q = make(chan T, m.depth) }

// Queue is the consumer side of the member's queue.
func (m *Member[T]) Queue() <-chan T { return m.q }

// QueueCap is the queue depth in effect.
func (m *Member[T]) QueueCap() int { return m.depth }

// Done closes when the member departs; Fin when its stream ends.
func (m *Member[T]) Done() <-chan struct{} { return m.done }
func (m *Member[T]) Fin() <-chan struct{}  { return m.fin }

// Departed reports whether Done has closed.
func (m *Member[T]) Departed() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// Dropped counts the deliveries lost to the policy or to departure.
func (m *Member[T]) Dropped() uint64 { return m.dropped.Load() }

// EvictReason is why the core evicted the member, "" if it did not. Read
// it after Done closed.
func (m *Member[T]) EvictReason() string {
	if msg := m.evictMsg.Load(); msg != nil {
		return *msg
	}
	return ""
}

// EndStream closes Fin, once. FinishSource and Close call it for joined
// members; for a member outside the registry, whoever feeds it does.
func (m *Member[T]) EndStream() { m.finOnce.Do(func() { close(m.fin) }) }

func (m *Member[T]) depart() { m.leaveOnce.Do(func() { close(m.done) }) }

// Join adds m to its source's live filter group with the given quality
// specification. The change is applied by the source's owning shard
// worker at a tuple boundary: m sees exactly the tuples submitted after
// Join returns, and the group is re-derived without disturbing the
// source's other members. Checks run in a fixed order — source,
// attributes, duplicate, group size, resume head — so both transports
// reject the same request with the same error.
func (c *Core[T]) Join(ctx context.Context, m *Member[T], spec quality.Spec) error {
	if m.App == "" {
		return fmt.Errorf("empty app name")
	}
	f, err := spec.Build(m.App)
	if err != nil {
		return err
	}
	if m.Resume && c.log == nil {
		return fmt.Errorf("%w: no durable log is configured", ErrResumeUnavailable)
	}
	if c.cfg.Policy == Degrade {
		if sc, ok := f.(adapt.Scalable); ok {
			// A fresh governor per member keeps each trajectory
			// independent; the config was validated by New.
			m.gov, _ = adapt.NewGovernor(c.cfg.Degrade)
			m.scalable, m.scaleKick = sc, make(chan struct{}, 1)
			m.targetScale.Store(math.Float64bits(1))
		}
	}
	c.mu.Lock()
	err = c.admit(m, spec)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	err = c.rt.ControlContext(ctx, m.Source, func(e *core.Engine) error {
		if err := e.AddFilter(f); err != nil {
			return err
		}
		// Routable from this tuple boundary on, not from registration:
		// whatever the worker releases before it — outputs the group
		// still owed an earlier session under the same app name among
		// them — is not this member's, and for a resuming member would
		// arrive twice, live below the fence and again in the replay.
		c.mu.Lock()
		m.active = true
		if src := c.sources[m.Source]; src != nil {
			src.subEpoch++
		}
		if m.Resume {
			// Under the lock: Inspect reads it.
			m.SpliceTo, m.SpliceAt = c.log.NextOffset(m.Source), time.Now()
		}
		c.mu.Unlock()
		return nil
	})
	if err != nil {
		// Nobody will consume this member's queue: anything still routed
		// to it must be dropped, not waited on.
		m.depart()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The cancelled wait may have left the AddFilter enqueued — it
			// will still run at its tuple boundary. Retract it behind it
			// (same ring, so the retraction is ordered after the join) so
			// no ghost member coordinates the group; the registry entry —
			// and with it the app name — is released only once the
			// retraction settled. Control returns once the runtime has.
			go func() {
				_ = c.rt.Control(m.Source, func(e *core.Engine) error { return e.RemoveFilter(m.App) })
				c.dropEntry(m)
			}()
		} else {
			c.dropEntry(m)
		}
		return fmt.Errorf("joining group of %q: %w", m.Source, err)
	}
	if m.gov != nil {
		go m.scaleLoop()
	}
	return nil
}

// admit validates the join against the registry and registers m, which
// reserves the app name; Join's control closure makes it routable. Caller
// holds c.mu.
func (c *Core[T]) admit(m *Member[T], spec quality.Spec) error {
	if c.closed {
		return ErrClosed
	}
	src := c.sources[m.Source]
	if src == nil {
		return fmt.Errorf("unknown source %q", m.Source)
	}
	for _, attr := range spec.Attrs {
		if !src.Schema.Has(attr) {
			return fmt.Errorf("source %q has no attribute %q (schema %v)", m.Source, attr, src.Schema)
		}
	}
	group := c.members[m.Source]
	if group[m.App] != nil {
		return fmt.Errorf("%w: app %q holds a live session on %q", ErrAlreadySubscribed, m.App, m.Source)
	}
	// The wire labels every destination with a u8 count; the limit holds
	// on every transport so a group accepted on one stays deliverable
	// over any.
	if len(group) >= wire.MaxDestinations {
		return fmt.Errorf("source %q already has %d subscribers (wire limit)", m.Source, wire.MaxDestinations)
	}
	if m.Resume {
		if head := c.log.NextOffset(m.Source); m.ResumeFrom > head {
			return fmt.Errorf("%w: resume offset %d is beyond the log head %d of source %q", ErrResumeUnavailable, m.ResumeFrom, head, m.Source)
		}
	}
	if group == nil {
		group = make(map[string]*Member[T])
		c.members[m.Source] = group
	}
	m.OpenQueue()
	group[m.App] = m
	m.joined, m.Schema, m.Group = true, src.Schema, src.Lat
	return nil
}

// dropEntry removes m from the registry (the engine side has been
// handled, or never joined) and bumps the epoch so no cached view keeps
// serving it.
func (c *Core[T]) dropEntry(m *Member[T]) {
	c.mu.Lock()
	if group := c.members[m.Source]; group[m.App] == m {
		delete(group, m.App)
		if src := c.sources[m.Source]; src != nil {
			src.subEpoch++
		}
	}
	c.mu.Unlock()
}

// Leave detaches m: it is marked departed (releasing any send blocked on
// it), its filter leaves the live group at a tuple boundary — re-deriving
// the group for the remaining members — and only then is the registry
// entry dropped, so outputs the group still owed the old session cannot
// reach a new one reusing the app name. Outputs decided after the leave
// have the departed label pruned. Leave is idempotent; concurrent calls
// return once the first has settled. A source that finished (or a core
// that drained) meanwhile already retired the whole group: not an error.
// If ctx ends the wait early the retraction still runs at its boundary.
func (c *Core[T]) Leave(ctx context.Context, m *Member[T]) error {
	m.depart()
	if !m.joined {
		return nil
	}
	var err error
	m.detachOnce.Do(func() {
		err = c.rt.ControlContext(ctx, m.Source, func(e *core.Engine) error { return e.RemoveFilter(m.App) })
		c.dropEntry(m)
	})
	if errors.Is(err, shard.ErrSourceFinished) || errors.Is(err, shard.ErrUnknownSource) || errors.Is(err, shard.ErrDrained) {
		return nil
	}
	return err
}

// Send enqueues one item under the slow-consumer policy and reports
// whether the queue took it; on false the item is the caller's to release
// and its n deliveries are counted as lost. Call it only from the
// goroutine that feeds the member (for a joined member the source's shard
// worker, which delivers in release order).
func (m *Member[T]) Send(item T, n uint64) bool {
	select {
	case <-m.done:
		m.lost(n)
		return false
	default:
	}
	switch m.c.cfg.Policy {
	case Drop:
		select {
		case m.q <- item:
			return true
		default:
		}
		// A consumer that persistently cannot keep up learns it was cut
		// off instead of losing data silently forever.
		if lost, limit := m.lost(n), m.c.cfg.EvictAfterDrops; limit > 0 && lost >= uint64(limit) {
			m.evict(fmt.Sprintf("%d deliveries dropped (limit %d)", lost, limit))
		}
		return false
	case Degrade:
		if m.gov != nil {
			// Sample pressure before the (blocking) hand-off so a filling
			// queue coarsens the spec before it wedges the worker.
			m.observePressure()
		}
	}
	select {
	case m.q <- item:
		return true
	default:
		return m.sendWait(item, n)
	}
}

// sendWait is Send's slow path, the queue being full: wait for space, the
// member's departure or — when the transport cannot notice an abandoned
// consumer itself — the block timeout, past which the member is evicted
// rather than parking the worker (and with it FinishSource and a graceful
// Close) forever.
func (m *Member[T]) sendWait(item T, n uint64) bool {
	var expired <-chan time.Time
	timeout := m.c.cfg.BlockTimeout
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case m.q <- item:
		return true
	case <-m.done:
	case <-expired:
		m.evict(fmt.Sprintf("delivery blocked longer than %v", timeout))
	}
	m.lost(n)
	return false
}

func (m *Member[T]) lost(n uint64) uint64 {
	m.c.drops.Add(n)
	return m.dropped.Add(n)
}

// evict force-detaches the member, once: the reason is latched, the
// member marked departed, and the engine-side retraction handed to a
// goroutine — it must not run on the calling shard worker, since Control
// would enqueue into the very ring that worker drains. The goroutine ends
// when the retraction settled or the runtime did.
func (m *Member[T]) evict(reason string) {
	m.evictOnce.Do(func() {
		if m.Departed() {
			return // drops past the end are not an eviction
		}
		m.evictMsg.Store(&reason)
		m.c.evictions.Add(1)
		m.depart()
		if m.joined {
			go func() { _ = m.c.Leave(context.Background(), m) }()
		}
	})
}

// observePressure feeds the governor one sample — queue occupancy plus
// the member's delivery-p99 estimate — and hands a verdict to scaleLoop.
func (m *Member[T]) observePressure() {
	var p99 time.Duration
	if m.Lat != nil {
		p99 = m.Lat.Snapshot().P99
	}
	scale, changed := m.gov.Observe(time.Now(), len(m.q), cap(m.q), p99)
	if !changed {
		return
	}
	if prev := math.Float64frombits(m.targetScale.Swap(math.Float64bits(scale))); scale > prev {
		m.c.degrades.Add(1)
	} else {
		m.c.restores.Add(1)
	}
	select {
	case m.scaleKick <- struct{}{}:
	default: // a kick is already pending; it will read the newest target
	}
}

// scaleLoop applies governor verdicts to the member's live filter from
// its own goroutine: SetScale must run on the owning shard worker through
// Control at a tuple boundary, and Control from that worker (inside Send)
// would deadlock. Targets are absolute, so coalesced kicks applying only
// the newest are correct. It ends with the member.
func (m *Member[T]) scaleLoop() {
	for {
		select {
		case <-m.done:
			return
		case <-m.fin:
			return
		case <-m.scaleKick:
		}
		target := math.Float64frombits(m.targetScale.Load())
		err := m.c.rt.Control(m.Source, func(*core.Engine) error { return m.scalable.SetScale(target) })
		if err != nil {
			continue // the source is finishing or the core draining
		}
		m.Peer.QoSApplied(target)
	}
}
