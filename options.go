package gasf

import (
	"fmt"
	"math/rand"
	"time"

	"gasf/internal/seglog"
)

// Functional options configure the Broker constructors, replacing the
// flag-bag Options struct at the facade boundary. Options that shape the
// engine or the runtime (shards, queues, algorithm, policy) apply to
// NewEmbedded — a dialed broker's server owns that configuration, so
// passing them to Dial is an error rather than a silent no-op.
// WithQueueDepth is also a SubOption: on a subscription it bounds that
// session's delivery queue on either transport.

// brokerConfig is the resolved option set.
type brokerConfig struct {
	remote          bool // set by Dial before options apply
	engine          Options
	subQueue        int
	maxSubQueue     int
	policy          SlowPolicy
	evictAfterDrops int
	dialTimeout     time.Duration
	reconnect       *Backoff
	dataDir         string
	seglog          seglog.Options
	telemetry       int
	srcTimeout      time.Duration
	scanEvery       time.Duration
	err             error
}

func (c *brokerConfig) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("gasf: "+format, args...)
	}
}

// Option configures a Broker constructor (NewEmbedded or Dial).
type Option interface{ applyBroker(*brokerConfig) }

// subConfig is the resolved per-subscription option set.
type subConfig struct {
	queue      int
	resume     bool
	resumeFrom uint64
	recvBuffer int
	err        error
}

// SubOption configures one Subscribe call.
type SubOption interface{ applySub(*subConfig) }

// BrokerSubOption is an option meaningful both at broker construction
// and on an individual subscription (WithQueueDepth).
type BrokerSubOption interface {
	Option
	SubOption
}

// embeddedOption is an Option valid only for NewEmbedded.
type embeddedOption struct {
	name string
	f    func(*brokerConfig)
}

func (o embeddedOption) applyBroker(c *brokerConfig) {
	if c.remote {
		c.fail("option %s does not apply to a dialed broker: the server owns its engine and runtime configuration", o.name)
		return
	}
	o.f(c)
}

// remoteOption is an Option valid only for Dial.
type remoteOption struct {
	name string
	f    func(*brokerConfig)
}

func (o remoteOption) applyBroker(c *brokerConfig) {
	if !c.remote {
		c.fail("option %s only applies to a dialed broker", o.name)
		return
	}
	o.f(c)
}

// WithShards sets the number of worker shards sources are
// hash-partitioned onto; 0 means GOMAXPROCS.
func WithShards(n int) Option {
	return embeddedOption{"WithShards", func(c *brokerConfig) {
		if n < 0 {
			c.fail("WithShards(%d): shard count cannot be negative", n)
			return
		}
		c.engine.ShardCount = n
	}}
}

// WithFlushBatch sets the released-transmission batch size per shard
// flush; 0 means the runtime default.
func WithFlushBatch(n int) Option {
	return embeddedOption{"WithFlushBatch", func(c *brokerConfig) {
		if n < 0 {
			c.fail("WithFlushBatch(%d): batch cannot be negative", n)
			return
		}
		c.engine.FlushBatch = n
	}}
}

// queueDepthOption carries WithQueueDepth to both scopes.
type queueDepthOption int

func (n queueDepthOption) applyBroker(c *brokerConfig) {
	if c.remote {
		c.fail("option WithQueueDepth does not apply to a dialed broker (pass it to Subscribe to size that session's delivery queue)")
		return
	}
	if n <= 0 {
		c.fail("WithQueueDepth(%d): depth must be positive", int(n))
		return
	}
	c.engine.QueueDepth = int(n)
}

func (n queueDepthOption) applySub(c *subConfig) {
	if n <= 0 {
		if c.err == nil {
			c.err = fmt.Errorf("gasf: WithQueueDepth(%d): depth must be positive", int(n))
		}
		return
	}
	c.queue = int(n)
}

// WithQueueDepth bounds a queue, by scope: as a broker option it sets
// the per-shard input ring depth of an embedded broker; as a
// subscription option it sets that session's delivery queue depth —
// how many deliveries are buffered before the slow-consumer policy
// applies — on either transport (the networked path relays it in the
// subscriber hello, clamped by the server's MaxSubscriberQueue).
func WithQueueDepth(n int) BrokerSubOption { return queueDepthOption(n) }

// WithSubscriberQueue sets the default delivery queue depth for
// subscriptions that do not request their own with WithQueueDepth.
func WithSubscriberQueue(n int) Option {
	return embeddedOption{"WithSubscriberQueue", func(c *brokerConfig) {
		if n <= 0 {
			c.fail("WithSubscriberQueue(%d): depth must be positive", n)
			return
		}
		c.subQueue = n
	}}
}

// WithMaxSubscriberQueue caps the per-subscription queue depth a
// Subscribe may request (memory protection).
func WithMaxSubscriberQueue(n int) Option {
	return embeddedOption{"WithMaxSubscriberQueue", func(c *brokerConfig) {
		if n <= 0 {
			c.fail("WithMaxSubscriberQueue(%d): depth must be positive", n)
			return
		}
		c.maxSubQueue = n
	}}
}

// WithSlowPolicy selects how a full subscription delivery queue is
// treated: PolicyBlock applies backpressure up to the publishers,
// PolicyDrop discards deliveries to the slow subscriber and counts them,
// and PolicyDegrade blocks while adaptively coarsening the precision of
// pressured subscriptions whose filters support scaling (restored
// stepwise once the pressure clears).
func WithSlowPolicy(p SlowPolicy) Option {
	return embeddedOption{"WithSlowPolicy", func(c *brokerConfig) {
		if p != PolicyBlock && p != PolicyDrop && p != PolicyDegrade {
			c.fail("WithSlowPolicy(%v): unknown policy", p)
			return
		}
		c.policy = p
	}}
}

// WithEvictAfterDrops evicts a PolicyDrop subscription once its dropped
// delivery count reaches n: instead of losing deliveries silently
// forever, the subscription is detached and its Recv surfaces
// ErrEvicted with the reason. 0 (the default) never evicts.
func WithEvictAfterDrops(n int) Option {
	return embeddedOption{"WithEvictAfterDrops", func(c *brokerConfig) {
		if n < 0 {
			c.fail("WithEvictAfterDrops(%d): threshold cannot be negative", n)
			return
		}
		c.evictAfterDrops = n
	}}
}

// WithAlgorithm selects the group-aware decision algorithm (RG or PS)
// for the engines the broker deploys per source.
func WithAlgorithm(a Algorithm) Option {
	return embeddedOption{"WithAlgorithm", func(c *brokerConfig) { c.engine.Algorithm = a }}
}

// WithStrategy selects the output-scheduling strategy (§3.4).
func WithStrategy(s OutputStrategy) Option {
	return embeddedOption{"WithStrategy", func(c *brokerConfig) { c.engine.Strategy = s }}
}

// WithBatchSize sets the release period, in input tuples, for the
// Batched output strategy.
func WithBatchSize(n int) Option {
	return embeddedOption{"WithBatchSize", func(c *brokerConfig) {
		if n <= 0 {
			c.fail("WithBatchSize(%d): size must be positive", n)
			return
		}
		c.engine.BatchSize = n
	}}
}

// WithCuts enables timely cuts with the given group time constraint
// (the conjunction of the group's delay requirements, §3.1).
func WithCuts(maxDelay time.Duration) Option {
	return embeddedOption{"WithCuts", func(c *brokerConfig) {
		if maxDelay <= 0 {
			c.fail("WithCuts(%v): the group time constraint must be positive", maxDelay)
			return
		}
		c.engine.Cuts = true
		c.engine.MaxDelay = maxDelay
	}}
}

// WithEngineOptions replaces the broker's whole engine option set — the
// escape hatch for knobs without a dedicated functional option
// (tie-breaks, punctuations, multicast delay) and the bridge for code
// migrating from the batch Run* surface. Later options still override
// individual fields.
func WithEngineOptions(o Options) Option {
	return embeddedOption{"WithEngineOptions", func(c *brokerConfig) { c.engine = o }}
}

// FsyncMode selects when the durable log syncs appended records to
// stable storage.
type FsyncMode = seglog.Policy

const (
	// FsyncInterval (the default) syncs dirty segments on a background
	// interval: bounded data loss on a crash, negligible publish-path
	// cost.
	FsyncInterval FsyncMode = seglog.SyncInterval
	// FsyncNever leaves syncing to the OS page cache.
	FsyncNever FsyncMode = seglog.SyncNever
	// FsyncAlways syncs every append before acknowledging it.
	FsyncAlways FsyncMode = seglog.SyncAlways
)

// DurabilityOption tunes the durable log opened by WithDurability.
type DurabilityOption func(*seglog.Options)

// WithSegmentBytes sets the byte size at which log segments rotate;
// 0 means the 64 MiB default.
func WithSegmentBytes(n int64) DurabilityOption {
	return func(o *seglog.Options) { o.SegmentBytes = n }
}

// WithFsync selects the log's fsync policy.
func WithFsync(m FsyncMode) DurabilityOption {
	return func(o *seglog.Options) { o.Fsync = m }
}

// WithFsyncInterval sets the background sync interval used by
// FsyncInterval; 0 means the 200ms default.
func WithFsyncInterval(d time.Duration) DurabilityOption {
	return func(o *seglog.Options) { o.Interval = d }
}

// WithDurability makes an embedded broker durable: every delivered
// transmission is appended to a per-source segment log under dir before
// fan-out, deliveries carry their log offsets, and subscriptions may
// catch up from a recorded offset with WithResumeFrom. NewEmbedded
// recovers the log (truncating any torn tail) before accepting work.
// A dialed broker inherits durability from its server (-data-dir), so
// this option does not apply to Dial.
func WithDurability(dir string, opts ...DurabilityOption) Option {
	return embeddedOption{"WithDurability", func(c *brokerConfig) {
		if dir == "" {
			c.fail("WithDurability(%q): empty data directory", dir)
			return
		}
		c.dataDir = dir
		for _, o := range opts {
			if o != nil {
				o(&c.seglog)
			}
		}
	}}
}

// resumeOption carries WithResumeFrom.
type resumeOption uint64

func (o resumeOption) applySub(c *subConfig) {
	c.resume = true
	c.resumeFrom = uint64(o)
}

// recvBufferOption carries WithRecvBuffer.
type recvBufferOption int

func (o recvBufferOption) applySub(c *subConfig) {
	if o <= 0 {
		if c.err == nil {
			c.err = fmt.Errorf("gasf: WithRecvBuffer(%d): size must be positive", int(o))
		}
		return
	}
	c.recvBuffer = int(o)
}

// WithRecvBuffer pins a dialed subscription's kernel receive buffer to
// roughly n bytes, disabling its autotuning. By default the kernel
// grows the buffer by megabytes for a slow reader, absorbing a large
// backlog before TCP backpressure reaches the server — which keeps the
// server's slow-consumer policy (block, drop, degrade) from noticing a
// lagging consumer until long after the lag began. A bounded buffer
// makes consumer lag propagate to the server promptly, at the cost of
// burst-absorption headroom. Only meaningful on a dialed broker; an
// embedded broker has no socket and rejects the option.
func WithRecvBuffer(n int) SubOption { return recvBufferOption(n) }

// WithResumeFrom asks for a catch-up subscription against a durable
// broker (an embedded broker built WithDurability, or a server started
// with -data-dir): the source's durable log records from offset on that
// name this application are delivered first, in order and with their
// offsets, then the live stream continues seamlessly — no gap, no
// duplicate. A consumer that checkpointed Delivery.Offset o resumes
// with WithResumeFrom(o+1); WithResumeFrom(0) replays from the start.
// Subscribing with an offset beyond the log head is an error, as is
// resuming against a broker with no durable log.
func WithResumeFrom(offset uint64) SubOption { return resumeOption(offset) }

// WithTelemetry tunes the embedded broker's pipeline telemetry: the
// delivery-latency quantiles and the sampled stage-timing
// histograms read back with Embedded.Telemetry. sampleEvery is the
// stage-timing sampling period, rounded up to a power of two (one timed
// event per period per stage bounds the steady-state clock cost); 0
// keeps the default period, and a negative value disables telemetry
// entirely. Telemetry is on by default — this option exists to widen or
// narrow the sampling, or to switch the subsystem off.
func WithTelemetry(sampleEvery int) Option {
	return embeddedOption{"WithTelemetry", func(c *brokerConfig) {
		if sampleEvery < 0 {
			c.telemetry = -1
			return
		}
		c.telemetry = sampleEvery
	}}
}

// WithSourceTimeout enables flow-gap expiry on an embedded broker: a
// source that neither publishes nor sits in a backpressured submit for
// d is finished automatically (its engine tail flushes and its
// subscribers' streams end), exactly as the networked server expires a
// silent publisher. By default embedded sources live until Finish or
// Close. A dialed broker inherits its server's -source-timeout, so this
// option does not apply to Dial.
func WithSourceTimeout(d time.Duration) Option {
	return embeddedOption{"WithSourceTimeout", func(c *brokerConfig) {
		if d <= 0 {
			c.fail("WithSourceTimeout(%v): the timeout must be positive", d)
			return
		}
		c.srcTimeout = d
	}}
}

// WithScanInterval sets the flow-gap detection granularity used with
// WithSourceTimeout: silence is detected no earlier than the timeout
// and no later than about two intervals past it. The default derives
// timeout/8 clamped to [10ms, 1s]; meaningless (and an error to pass)
// without WithSourceTimeout.
func WithScanInterval(d time.Duration) Option {
	return embeddedOption{"WithScanInterval", func(c *brokerConfig) {
		if d <= 0 {
			c.fail("WithScanInterval(%v): the interval must be positive", d)
			return
		}
		c.scanEvery = d
	}}
}

// WithDialTimeout bounds each session dial (the TCP connect plus the
// hello handshake) of a dialed broker; contexts with earlier deadlines
// tighten it per call. 0 means the transport default of 5s.
func WithDialTimeout(d time.Duration) Option {
	return remoteOption{"WithDialTimeout", func(c *brokerConfig) {
		if d < 0 {
			c.fail("WithDialTimeout(%v): timeout cannot be negative", d)
			return
		}
		c.dialTimeout = d
	}}
}

// Backoff parameterizes the retry schedule of WithReconnect: delays grow
// from Base by Factor per consecutive failure, capped at Max, with a
// uniform random perturbation of ±Jitter (a fraction of the delay) so a
// fleet of clients does not thunder back in lockstep after a restart.
// Zero fields take the defaults noted per field.
type Backoff struct {
	// Base is the first retry delay; 0 means 100ms.
	Base time.Duration
	// Max caps the grown delay; 0 means 5s.
	Max time.Duration
	// Factor multiplies the delay per consecutive failure; 0 means 2.
	Factor float64
	// Jitter is the ± perturbation as a fraction of the delay, in [0, 1];
	// 0 means 0.2.
	Jitter float64
}

func (b Backoff) withDefaults() (Backoff, error) {
	if b.Base < 0 || b.Max < 0 || b.Factor < 0 || b.Jitter < 0 || b.Jitter > 1 {
		return b, fmt.Errorf("gasf: WithReconnect(%+v): negative field or jitter outside [0, 1]", b)
	}
	if b.Base == 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max == 0 {
		b.Max = 5 * time.Second
	}
	if b.Max < b.Base {
		b.Max = b.Base
	}
	if b.Factor == 0 {
		b.Factor = 2
	}
	if b.Factor < 1 {
		return b, fmt.Errorf("gasf: WithReconnect(%+v): factor must be >= 1", b)
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	return b, nil
}

// delay returns the backoff delay for the attempt'th consecutive failure
// (attempt 0 = first retry), jittered.
func (b Backoff) delay(attempt int) time.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= b.Factor
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	// Uniform in [1-Jitter, 1+Jitter).
	d *= 1 + b.Jitter*(2*rand.Float64()-1)
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// WithReconnect makes a dialed broker's sessions self-healing: when a
// source or subscription session loses its connection, the operation in
// flight transparently redials on b's schedule (bounded by the call's
// context) and resumes. Against a durable server a subscription resumes
// from its last delivered log offset — gapless and duplicate-free — and
// a source republishes the tuples not yet fenced by a Sync barrier,
// trimmed by the server's resume hint. Against a non-durable server the
// sessions still redial, but continuity is best-effort. A stream end
// caused by the source finishing, and an eviction, are terminal and
// never redialed; a stream end forced by server shutdown (the server
// tags those goodbyes) is treated as connection loss, so sessions ride
// through a server restart — against a permanently stopped server they
// keep retrying until the calling context expires.
func WithReconnect(b Backoff) Option {
	return remoteOption{"WithReconnect", func(c *brokerConfig) {
		bo, err := b.withDefaults()
		if err != nil {
			c.err = err
			return
		}
		c.reconnect = &bo
	}}
}

// resolveBrokerConfig applies opts over the defaults.
func resolveBrokerConfig(remote bool, opts []Option) (brokerConfig, error) {
	cfg := brokerConfig{remote: remote, policy: PolicyBlock}
	for _, o := range opts {
		if o == nil {
			continue
		}
		o.applyBroker(&cfg)
	}
	if cfg.err == nil && cfg.scanEvery > 0 && cfg.srcTimeout == 0 {
		cfg.fail("WithScanInterval(%v) requires WithSourceTimeout", cfg.scanEvery)
	}
	return cfg, cfg.err
}

// resolveSubConfig applies opts over the defaults (0 = broker default
// queue depth).
func resolveSubConfig(opts []SubOption) (subConfig, error) {
	var cfg subConfig
	for _, o := range opts {
		if o == nil {
			continue
		}
		o.applySub(&cfg)
	}
	return cfg, cfg.err
}
