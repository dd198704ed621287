package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"gasf"
)

// This file is the only one that touches the system under test's
// construction: one server-start call per node, then nothing but the
// gasf.Broker / Source / Subscription interfaces and the public
// snapshots. Default options throughout — what a user gets — except the
// telemetry sampling period of a traced run.

// The session interfaces and the stream-end sentinel the rest of the
// benchmark drives the system through.
type (
	source       = gasf.Source
	subscription = gasf.Subscription
	delivery     = gasf.Delivery
)

var errStreamEnded = gasf.ErrStreamEnded

// tracedSampleEvery is the stage-timing sampling period of a traced run
// (the default is 64).
const tracedSampleEvery = 4

// sut is one started deployment of a workload's kind.
type sut struct {
	kind sutKind
	// pub opens sources, sub subscribes ordinary sessions, ctl (federated
	// only) subscribes sessions attached directly to the core.
	pub, sub, ctl gasf.Broker

	embedded *gasf.Embedded
	nodes    []*gasf.Server // TCP kinds: the core (or only) node first, then the edges
	dir      string         // durable log directory, removed by stop
}

// startSUT brings up the brokers of one workload kind. traced widens the
// telemetry sampling; tmpRoot is where a durable log may live.
func startSUT(kind sutKind, traced bool, tmpRoot string) (*sut, error) {
	s := &sut{kind: kind}
	sample := 0
	if traced {
		sample = tracedSampleEvery
	}
	if kind == kindEmbedded {
		var opts []gasf.Option
		if traced {
			opts = append(opts, gasf.WithTelemetry(sample))
		}
		b, err := gasf.NewEmbedded(opts...)
		if err != nil {
			return nil, err
		}
		s.embedded, s.pub, s.sub = b, b, b
		return s, nil
	}
	cfg := gasf.ServerConfig{TelemetrySampleEvery: sample}
	switch kind {
	case kindDurable:
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "seglog-")
		if err != nil {
			return nil, err
		}
		s.dir, cfg.DataDir = dir, dir
	case kindFederated:
		cfg.Federation = gasf.FederationConfig{Role: gasf.RoleCore, Self: "c0"}
	}
	core, err := gasf.StartServer(cfg)
	if err != nil {
		s.stop(context.Background())
		return nil, err
	}
	s.nodes = append(s.nodes, core)
	if kind != kindFederated {
		r, err := gasf.Dial(core.Addr().String())
		if err != nil {
			s.stop(context.Background())
			return nil, err
		}
		s.pub, s.sub = r, r
		return s, nil
	}
	// The core learns its one-node ring once its address is known, the
	// way an operator bootstraps a tier; the edges are handed it.
	cores := []gasf.FederationNode{{Name: "c0", Addr: core.Addr().String()}}
	if err := core.UpdatePeers(cores); err != nil {
		s.stop(context.Background())
		return nil, err
	}
	edges := make([]gasf.FederationNode, 2)
	for i := range edges {
		name := fmt.Sprintf("e%d", i)
		e, err := gasf.StartServer(gasf.ServerConfig{
			TelemetrySampleEvery: sample,
			Federation:           gasf.FederationConfig{Role: gasf.RoleEdge, Self: name, Peers: cores},
		})
		if err != nil {
			s.stop(context.Background())
			return nil, err
		}
		s.nodes = append(s.nodes, e)
		edges[i] = gasf.FederationNode{Name: name, Addr: e.Addr().String()}
	}
	fed, err := gasf.DialFederated(gasf.FormatPeers(cores), gasf.FormatPeers(edges))
	if err == nil {
		s.pub, s.sub = fed, fed
		s.ctl, err = gasf.Dial(core.Addr().String())
	}
	if err != nil {
		s.stop(context.Background())
		return nil, err
	}
	return s, nil
}

// subscribe joins one session; resume re-reads the source's log from
// offset 0 first.
func (s *sut) subscribe(ctx context.Context, p subPlan, source string, resume bool) (subscription, error) {
	b := s.sub
	if p.direct && s.ctl != nil {
		b = s.ctl
	}
	if resume {
		return b.Subscribe(ctx, p.app, source, p.spec, gasf.WithResumeFrom(0))
	}
	return b.Subscribe(ctx, p.app, source, p.spec)
}

// stop closes the client handles, shuts the nodes down edges first, and
// removes the durable log.
func (s *sut) stop(ctx context.Context) error {
	var errs []error
	for _, b := range []gasf.Broker{s.ctl, s.sub} {
		if b != nil {
			errs = append(errs, b.Close(ctx))
		}
	}
	for i := len(s.nodes) - 1; i >= 0; i-- {
		errs = append(errs, s.nodes[i].Shutdown(ctx))
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// stageStat is one pipeline stage's sampled timing.
type stageStat struct {
	name          string
	count         uint64
	meanNs, p99Ns float64
}

// snapshot is what the public read-outs say after a run.
type snapshot struct {
	tuplesIn, transmissions uint64 // the O/I ratio's two terms, as the system counted them
	bytesIn, bytesOut       uint64 // the core (or only) node's socket payload bytes
	subscriberDrops         uint64
	logAppendErrors         uint64
	replayRecords           uint64
	stages                  []stageStat
	// Shard runtime of the node that runs the engines.
	avgDrainRun                  float64
	maxQueueDepth                int
	producerParks, consumerParks uint64
	// Edge tier (federated only).
	legs, localSubs      int
	relayFrames          uint64
	legDials, legRedials uint64
}

// edgeTier counts the edges' upstream legs and local sessions. It must
// be read while the sessions are attached: a leg is torn down with its
// last member.
func (s *sut) edgeTier() (legs, sessions int) {
	if s.kind != kindFederated {
		return 0, 0
	}
	for _, e := range s.nodes[1:] {
		st := e.FederationStats()
		legs += st.UpstreamLegs
		sessions += st.LocalSubscribers
	}
	return legs, sessions
}

// snapshot reads every public counter the per-layer metrics use, once
// the sources have finished (the embedded engine results settle then).
func (s *sut) snapshot() snapshot {
	var (
		out    snapshot
		tel    gasf.TelemetrySnapshot
		shards []gasf.ShardSnapshot
	)
	if s.embedded != nil {
		for _, res := range s.embedded.Results() {
			out.tuplesIn += uint64(res.Stats.Inputs)
			out.transmissions += uint64(len(res.Transmissions))
		}
		tel, shards = s.embedded.Telemetry(), s.embedded.Metrics()
	} else {
		core := s.nodes[0]
		c := core.Counters()
		out.tuplesIn, out.transmissions = c.TuplesIn, c.TransmissionsOut
		out.bytesIn, out.bytesOut = c.BytesIn, c.BytesOut
		out.subscriberDrops, out.logAppendErrors, out.replayRecords = c.SubscriberDrops, c.LogAppendErrors, c.ReplayRecordsOut
		tel, shards = core.Telemetry().Snapshot(), core.Runtime().Metrics()
		for _, e := range s.nodes[1:] {
			ec := e.Counters()
			out.relayFrames += ec.FedRelayFrames
			out.legDials += ec.FedLegDials
			out.legRedials += ec.FedLegRedials
			out.subscriberDrops += ec.SubscriberDrops
		}
	}
	for _, st := range tel.Stages {
		h := st.Hist
		ss := stageStat{name: st.Stage, count: h.Count}
		if h.Count > 0 {
			ss.meanNs = h.SumSeconds * 1e9 / float64(h.Count)
			// The histogram's buckets are powers of two from 1.024 µs: the
			// p99 is the upper bound of the bucket the 99th percentile
			// falls in.
			rank := uint64(float64(h.Count)*0.99 + 0.5)
			ss.p99Ns = float64(time.Duration(1024) << len(h.Cumulative))
			for i, cum := range h.Cumulative {
				if cum >= rank {
					ss.p99Ns = float64(time.Duration(1024) << i)
					break
				}
			}
		}
		out.stages = append(out.stages, ss)
	}
	var drains, drained float64
	for _, sh := range shards {
		drains += float64(sh.Drains)
		drained += sh.AvgDrainRun * float64(sh.Drains)
		out.maxQueueDepth = max(out.maxQueueDepth, sh.MaxQueueDepth)
		out.producerParks += sh.ProducerParks
		out.consumerParks += sh.ConsumerParks
	}
	if drains > 0 {
		out.avgDrainRun = drained / drains
	}
	return out
}
