package gasf

import (
	"context"
	"fmt"

	"gasf/internal/broker"
	"gasf/internal/session"
)

// Embedded is the in-process Broker implementation: sources and
// subscriptions run directly on the sharded group-aware runtime, with no
// sockets in the loop. It is the deployment for single-process services,
// tests, and the batch Run* wrappers; it exposes the engine results and
// shard metrics a networked client cannot see.
type Embedded struct {
	b *broker.Broker
}

var _ Broker = (*Embedded)(nil)

// NewEmbedded starts an embedded broker configured by functional
// options (WithShards, WithQueueDepth, WithSlowPolicy, WithAlgorithm,
// ...). The zero option set runs default RG engines with blocking
// slow-consumer handling.
func NewEmbedded(opts ...Option) (*Embedded, error) {
	cfg, err := resolveBrokerConfig(false, opts)
	if err != nil {
		return nil, err
	}
	b, err := broker.New(session.Config{
		Engine:               cfg.engine,
		SubscriberQueue:      cfg.subQueue,
		MaxSubscriberQueue:   cfg.maxSubQueue,
		Policy:               cfg.policy,
		EvictAfterDrops:      cfg.evictAfterDrops,
		DataDir:              cfg.dataDir,
		Seglog:               cfg.seglog,
		TelemetrySampleEvery: cfg.telemetry,
		SourceTimeout:        cfg.srcTimeout,
		ScanInterval:         cfg.scanEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Embedded{b: b}, nil
}

// OpenSource implements Broker.
func (e *Embedded) OpenSource(ctx context.Context, name string, schema *Schema) (Source, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.b.OpenSource(name, schema)
}

// Subscribe implements Broker.
func (e *Embedded) Subscribe(ctx context.Context, app, source, spec string, opts ...SubOption) (Subscription, error) {
	sp, err := specFor(spec)
	if err != nil {
		return nil, err
	}
	sc, err := resolveSubConfig(opts)
	if err != nil {
		return nil, err
	}
	if sc.recvBuffer > 0 {
		return nil, fmt.Errorf("gasf: WithRecvBuffer only applies to a dialed broker (an embedded subscription has no socket)")
	}
	sub, err := e.b.Subscribe(ctx, app, source, sp, broker.SubOptions{
		Queue:      sc.queue,
		Resume:     sc.resume,
		ResumeFrom: sc.resumeFrom,
	})
	if err != nil {
		return nil, err
	}
	return &embeddedSub{sub: sub}, nil
}

// Close implements Broker: open sources are finished, their tails flush
// through the remaining subscribers, and the shard runtime drains. ctx
// bounds the graceful path; on expiry the runtime is aborted.
func (e *Embedded) Close(ctx context.Context) error { return e.b.Close(ctx) }

// Results returns the per-source engine results accumulated so far —
// settled once the sources finished (or after Close). The embedded
// broker retains finished sources so batch runs can read them.
func (e *Embedded) Results() map[string]*Result { return e.b.Results() }

// Metrics returns the per-shard runtime counters.
func (e *Embedded) Metrics() []ShardSnapshot { return e.b.Metrics() }

// Telemetry returns the pipeline telemetry snapshot: the aggregate
// delivery-latency quantiles and the sampled stage-duration histograms.
// Zero when telemetry was disabled with WithTelemetry(-1). The embedded
// broker observes delivery latency at the subscriber queue hand-off
// (there is no egress socket in-process).
func (e *Embedded) Telemetry() TelemetrySnapshot { return e.b.Telemetry() }

// embeddedSub adapts the internal subscription to the unified interface
// (pointer deliveries, the shared end-of-stream sentinel).
type embeddedSub struct {
	sub *broker.Sub
}

var _ Subscription = (*embeddedSub)(nil)

func (s *embeddedSub) App() string     { return s.sub.App() }
func (s *embeddedSub) Source() string  { return s.sub.Source() }
func (s *embeddedSub) Schema() *Schema { return s.sub.Schema() }
func (s *embeddedSub) Spec() Spec      { return s.sub.Spec() }
func (s *embeddedSub) QoS() float64    { return s.sub.QoS() }

func (s *embeddedSub) Recv(ctx context.Context) (*Delivery, error) {
	d, err := s.sub.Recv(ctx)
	if err != nil {
		return nil, mapStreamEnd(err)
	}
	return &d, nil
}

func (s *embeddedSub) RecvInto(ctx context.Context, d *Delivery) error {
	return mapStreamEnd(s.sub.RecvInto(ctx, d))
}

func (s *embeddedSub) Close(ctx context.Context) error { return s.sub.Close(ctx) }

// queueDepth reports the delivery queue depth in effect (tests).
func (s *embeddedSub) queueDepth() int { return s.sub.QueueDepth() }

// ensure the concrete source satisfies the interface.
var _ Source = (*broker.Source)(nil)
