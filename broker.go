package gasf

import (
	"context"
	"errors"
	"fmt"

	"gasf/internal/broker"
	"gasf/internal/quality"
	"gasf/internal/server"
	"gasf/internal/session"
)

// This file defines the unified, context-first streaming API: one Broker
// contract served by two transports — NewEmbedded (in-process, on the
// sharded runtime directly) and Dial (TCP, against a gasf-server). The
// same publish/subscribe/churn program runs unchanged on either; the
// parity test suite holds the two to byte-identical released sequences
// per subscriber. The batch Run/RunSharded entry points are thin
// wrappers over an embedded broker.

// Broker is the unified streaming surface: long-lived sources publish
// indefinitely, applications join and leave a source's filter group at
// tuple boundaries (the paper's group re-derivation, §4.3), and every
// blocking operation takes a context for cancellation and deadlines.
//
// Implementations: NewEmbedded runs the group-aware engines in-process
// on the sharded runtime; Dial drives a gasf-server over TCP. Both obey
// the same contract, verified byte-for-byte by the parity suite.
type Broker interface {
	// OpenSource registers a live source under a unique name. Tuples may
	// be published and subscribers may join as soon as it returns.
	OpenSource(ctx context.Context, name string, schema *Schema) (Source, error)
	// Subscribe joins a source's live filter group with a quality
	// specification in the paper's notation (e.g. "DC1(temperature,
	// 0.5, 0.25)"). The spec is parsed and validated before it travels:
	// rendering is lossless (ParseSpec(s.String()) == s), so the spec a
	// subscription reports is exactly the one the group coordinates on.
	// The join happens at a tuple boundary without disturbing the
	// source's other subscribers.
	Subscribe(ctx context.Context, app, source, spec string, opts ...SubOption) (Subscription, error)
	// Close releases the broker: the embedded transport drains its
	// runtime (flushing every engine tail through its subscribers); the
	// networked transport closes the sessions it opened. ctx bounds the
	// graceful path.
	Close(ctx context.Context) error
}

// Source is one live publisher session. Timestamps must be strictly
// increasing per source — the engine's region algebra depends on it —
// and every tuple must use the schema advertised at OpenSource.
type Source interface {
	// Name returns the source name.
	Name() string
	// Schema returns the advertised schema.
	Schema() *Schema
	// Publish sends one tuple, blocking under backpressure until ctx is
	// done.
	Publish(ctx context.Context, t *Tuple) error
	// PublishBatch sends a run of tuples in one hand-off: one write on
	// the wire, one ring synchronization in-process.
	PublishBatch(ctx context.Context, tuples []*Tuple) error
	// Sync is the publish barrier: when it returns, every previously
	// published tuple is ordered at the engine ahead of any membership
	// change applied afterwards. In-process publishing is already
	// synchronous, so the embedded Sync is a no-op; over TCP it round
	// trips a ping through the server's ingest path.
	Sync(ctx context.Context) error
	// Finish ends the stream gracefully: the engine's tail is flushed to
	// the source's subscribers and their streams end.
	Finish(ctx context.Context) error
}

// Subscription is one live application session in a source's filter
// group.
type Subscription interface {
	// App returns the application name.
	App() string
	// Source returns the subscribed source name.
	Source() string
	// Schema returns the source schema.
	Schema() *Schema
	// Spec returns the parsed quality specification in effect.
	Spec() Spec
	// Recv blocks for the next delivery until ctx is done. It returns
	// ErrStreamEnded once the stream ends gracefully.
	Recv(ctx context.Context) (*Delivery, error)
	// RecvInto is Recv decoding into d, reusing d's tuple and label
	// storage where the transport allows; everything reachable from d is
	// valid only until the next RecvInto with the same Delivery.
	RecvInto(ctx context.Context, d *Delivery) error
	// QoS returns the quality scale currently applied to this
	// subscription by the degrade slow-consumer policy: 1 means full
	// fidelity, larger means the effective spec has been coarsened by
	// that factor under overload. Always 1 under other policies (and on
	// the networked transport until the server's first QoS announcement
	// arrives).
	QoS() float64
	// Close leaves the group at a tuple boundary, re-deriving it for the
	// remaining members. When Close returns, the departure has been
	// applied.
	Close(ctx context.Context) error
}

// Delivery is one transmission received by a subscription: the tuple,
// the destination labels of the subscribers sharing it (pruned to the
// members live at release time), and the receive instant. Against a
// durable broker (WithDurability, or a server started with -data-dir)
// Offset is the delivery's position in the source's durable log — the
// checkpoint a later WithResumeFrom(offset+1) subscription resumes
// from.
type Delivery = session.Delivery

// specFor parses and validates a subscription spec once at the facade,
// so both transports coordinate on the identical, canonically rendered
// specification.
func specFor(spec string) (quality.Spec, error) {
	sp, err := quality.Parse(spec)
	if err != nil {
		return quality.Spec{}, err
	}
	return sp, nil
}

// ErrEvicted reports that the broker force-detached a subscription — it
// blocked past the eviction timeout, or exceeded the drop threshold set
// with WithEvictAfterDrops (embedded) or ServerConfig.EvictAfterDrops
// (networked). Recv errors wrap it with the reason; check with
// errors.Is(err, gasf.ErrEvicted). Distinct from ErrStreamEnded: an
// evicted consumer lost deliveries, a gracefully ended one did not.
var ErrEvicted = errors.New("gasf: subscriber evicted")

// mapStreamEnd folds the transports' end-of-stream and eviction
// sentinels into the public ones shared by both paths.
func mapStreamEnd(err error) error {
	if errors.Is(err, broker.ErrStreamEnded) {
		return ErrStreamEnded
	}
	if errors.Is(err, broker.ErrEvicted) || errors.Is(err, server.ErrEvicted) {
		return fmt.Errorf("%w: %v", ErrEvicted, err)
	}
	return err
}

// errBrokerClosed rejects operations on a closed broker handle.
var errBrokerClosed = fmt.Errorf("gasf: broker closed")
