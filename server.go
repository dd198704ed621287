package gasf

import (
	"gasf/internal/server"
	"gasf/internal/session"
)

// ErrStreamEnded reports a graceful end of a subscription stream (the
// source finished or the server drained).
var ErrStreamEnded = server.ErrStreamEnded

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
