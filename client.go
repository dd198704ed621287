package gasf

import (
	"gasf/internal/server"
	"gasf/internal/session"
)

// Networked client API: Client dials a gasf-server and opens publisher
// (source) and subscriber (application) sessions over the binary wire
// protocol. See internal/server for the protocol and DESIGN.md §7 for the
// server architecture.
//
// New code should prefer the unified Broker surface — gasf.Dial returns
// the same wire sessions behind the transport-agnostic, context-first
// interface that an embedded broker also implements (see broker.go and
// DESIGN.md §10). Client remains as a thin veneer for existing callers.

// Publisher is a client-side source session streaming tuples to a server.
type Publisher = server.Publisher

// StreamSub is a client-side subscriber session receiving a filtered
// transmission stream from a server.
type StreamSub = server.Subscriber

// StreamDelivery is one transmission received by a StreamSub.
type StreamDelivery = server.Delivery

// ErrStreamEnded reports a graceful end of a subscription stream (the
// source finished or the server drained).
var ErrStreamEnded = server.ErrStreamEnded

// Client dials a gasf-server.
type Client struct {
	// Addr is the server's TCP address, e.g. "localhost:7070".
	Addr string
}

// NewClient returns a client for the server at addr.
func NewClient(addr string) *Client { return &Client{Addr: addr} }

// Publish opens a source session: the source name and schema are
// advertised in the handshake, then tuples stream with Publisher.Publish
// (caller-managed timestamps) or Publisher.PublishNow (wall clock).
func (c *Client) Publish(source string, schema *Schema) (*Publisher, error) {
	return server.DialPublisher(c.Addr, source, schema)
}

// Subscribe joins a source's filter group with a quality specification in
// the paper's notation (e.g. "DC1(temperature, 0.5, 0.25)") and returns
// the session; receive with StreamSub.Recv. The subscription joins the
// live group at a tuple boundary — the paper's group re-derivation (§4.3)
// — without disturbing the source's other subscribers.
func (c *Client) Subscribe(app, source, spec string) (*StreamSub, error) {
	return server.DialSubscriber(c.Addr, app, source, spec)
}

// SubscribeBuffered is Subscribe with an explicit server-side send-queue
// depth for this session; 0 accepts the server default.
//
// Deprecated: queue depth is a subscription option on the unified Broker
// surface — use Dial(addr) and Subscribe(ctx, app, source, spec,
// WithQueueDepth(queue)) instead. SubscribeBuffered remains a working
// wrapper over the same wire session.
func (c *Client) SubscribeBuffered(app, source, spec string, queue int) (*StreamSub, error) {
	return server.DialSubscriberOpts(c.Addr, app, source, spec, server.SubDialOpts{Queue: queue})
}

// ServerConfig configures an embedded streaming server (see cmd/gasf-server
// for the standalone binary).
type ServerConfig = server.Config

// Server is the networked streaming server.
type Server = server.Server

// SlowPolicy selects how a full subscriber delivery queue is treated —
// backpressure (PolicyBlock) or counted drops (PolicyDrop). It is shared
// by ServerConfig.Policy and the broker option WithSlowPolicy.
type SlowPolicy = server.Policy

// Slow-consumer policies for ServerConfig.Policy and WithSlowPolicy.
const (
	// PolicyBlock applies backpressure from slow subscribers up to the
	// publishers.
	PolicyBlock = server.PolicyBlock
	// PolicyDrop drops deliveries to slow subscribers and counts them.
	PolicyDrop = server.PolicyDrop
	// PolicyDegrade blocks like PolicyBlock but adaptively coarsens the
	// precision of pressured subscriptions whose filters support scaling
	// (the DC family), announcing each change in Subscription.QoS and
	// restoring full fidelity stepwise once the pressure clears.
	PolicyDegrade = server.PolicyDegrade
)

// ParsePolicy reads a slow-consumer policy name ("block", "drop" or
// "degrade").
func ParsePolicy(s string) (SlowPolicy, error) { return session.ParsePolicy(s) }

// StartServer starts an embedded streaming server; useful for tests and
// single-process deployments.
func StartServer(cfg ServerConfig) (*Server, error) { return server.Start(cfg) }
