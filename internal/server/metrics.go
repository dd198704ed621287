package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync/atomic"

	"gasf/internal/federate"
	"gasf/internal/session"
	"gasf/internal/telemetry"
)

// counters is the server's atomic counter block; the lifecycle counts
// the session core keeps (expiries, drops, evictions, degrade actions,
// log append failures) are read from it, not duplicated here.
type counters struct {
	sourcesAccepted     atomic.Uint64
	sourcesFinished     atomic.Uint64
	sourcesFailed       atomic.Uint64
	subscribersAccepted atomic.Uint64
	handshakeRejects    atomic.Uint64
	tuplesIn            atomic.Uint64
	transmissionsOut    atomic.Uint64
	deliveriesOut       atomic.Uint64
	bytesIn             atomic.Uint64
	bytesOut            atomic.Uint64
	heartbeatsIn        atomic.Uint64
	replaysServed       atomic.Uint64
	replayRecordsOut    atomic.Uint64
	// Session closures split by cause (one increment per finished
	// session, exactly one of these), plus the tier-2 detector's
	// gap-recovered reconnects.
	closedFlowGap    atomic.Uint64
	closedDisconnect atomic.Uint64
	closedDrain      atomic.Uint64
	closedFinished   atomic.Uint64
	gapReconnects    atomic.Uint64
	gapNotifications atomic.Uint64
	// Federation: upstream-leg lifecycle on an edge (dials, redials,
	// resumed redials, relayed transmission frames) and relay-leg
	// sessions accepted on a core.
	fedLegDials    atomic.Uint64
	fedLegRedials  atomic.Uint64
	fedLegResumes  atomic.Uint64
	fedRelayFrames atomic.Uint64
	fedRelayLegsIn atomic.Uint64
}

// Counters is a point-in-time snapshot of the server session counters.
type Counters struct {
	// SourcesActive and SubscribersActive are gauges; the rest are
	// monotonic totals.
	SourcesActive, SubscribersActive                                int
	SourcesAccepted, SourcesFinished, SourcesExpired, SourcesFailed uint64
	SubscribersAccepted, SubscriberDrops                            uint64
	HandshakeRejects                                                uint64
	TuplesIn, TransmissionsOut, DeliveriesOut                       uint64
	BytesIn, BytesOut                                               uint64
	HeartbeatsIn                                                    uint64
	// LogAppendErrors counts failed durable-log appends (durability
	// degraded; delivery continued). ReplaysServed counts resume
	// sessions that completed their history replay; ReplayRecordsOut
	// counts the records those replays delivered.
	LogAppendErrors, ReplaysServed, ReplayRecordsOut uint64
	// Closed* split every source-session closure by its cause: expired
	// by the flow-gap detector, disconnected with an error, cut by a
	// drain, or cleanly finished. GapReconnects counts sources that
	// reconnected after the tier-2 sketch had last heard them longer
	// than SourceTimeout ago.
	ClosedFlowGap, ClosedDisconnect, ClosedDrain, ClosedFinished uint64
	GapReconnects                                                uint64
	// GapNotifications counts OnSourceGap hook invocations (deadman
	// notifications for flow-gap closures).
	GapNotifications uint64
	// QoSDegrades and QoSRestores count degrade-policy scale changes;
	// SubscriberEvictions counts sessions evicted past EvictAfterDrops.
	QoSDegrades, QoSRestores, SubscriberEvictions uint64
	// Federation: on an edge, upstream-leg dials/redials (and how many
	// redials resumed from the durable log) plus transmission frames
	// relayed; on a core, relay-leg sessions accepted from edges.
	FedLegDials, FedLegRedials, FedLegResumes uint64
	FedRelayFrames, FedRelayLegsIn            uint64
}

// Counters snapshots the session counters.
func (s *Server) Counters() Counters {
	srcs, subs := 0, 0
	s.core.Inspect(func(_ *session.Source[*frameBatch], members map[string]*session.Member[*frameBatch]) {
		srcs++
		subs += len(members)
	})
	st := s.core.Stats()
	if s.fed != nil {
		// Relay members live outside the registry (they share app names
		// by design); the leg registry is their census.
		_, members := s.fed.counts()
		subs += members
	}
	return Counters{
		SourcesActive:       srcs,
		SubscribersActive:   subs,
		SourcesAccepted:     s.ctr.sourcesAccepted.Load(),
		SourcesFinished:     s.ctr.sourcesFinished.Load(),
		SourcesExpired:      st.SourcesExpired,
		SourcesFailed:       s.ctr.sourcesFailed.Load(),
		SubscribersAccepted: s.ctr.subscribersAccepted.Load(),
		SubscriberDrops:     st.Drops,
		HandshakeRejects:    s.ctr.handshakeRejects.Load(),
		TuplesIn:            s.ctr.tuplesIn.Load(),
		TransmissionsOut:    s.ctr.transmissionsOut.Load(),
		DeliveriesOut:       s.ctr.deliveriesOut.Load(),
		BytesIn:             s.ctr.bytesIn.Load(),
		BytesOut:            s.ctr.bytesOut.Load(),
		HeartbeatsIn:        s.ctr.heartbeatsIn.Load(),
		LogAppendErrors:     st.LogAppendErrors,
		ReplaysServed:       s.ctr.replaysServed.Load(),
		ReplayRecordsOut:    s.ctr.replayRecordsOut.Load(),
		ClosedFlowGap:       s.ctr.closedFlowGap.Load(),
		ClosedDisconnect:    s.ctr.closedDisconnect.Load(),
		ClosedDrain:         s.ctr.closedDrain.Load(),
		ClosedFinished:      s.ctr.closedFinished.Load(),
		GapReconnects:       s.ctr.gapReconnects.Load(),
		GapNotifications:    s.ctr.gapNotifications.Load(),
		QoSDegrades:         st.Degrades,
		QoSRestores:         st.Restores,
		SubscriberEvictions: st.Evictions,
		FedLegDials:         s.ctr.fedLegDials.Load(),
		FedLegRedials:       s.ctr.fedLegRedials.Load(),
		FedLegResumes:       s.ctr.fedLegResumes.Load(),
		FedRelayFrames:      s.ctr.fedRelayFrames.Load(),
		FedRelayLegsIn:      s.ctr.fedRelayLegsIn.Load(),
	}
}

// WriteMetrics writes the full Prometheus text exposition: session
// counters, per-shard runtime series, stage-duration histograms, and
// the delivery-latency summaries. Every family carries HELP and TYPE
// and the output satisfies telemetry.Validate.
func (s *Server) WriteMetrics(w io.Writer) error {
	x := telemetry.NewWriter(w)
	c := s.Counters()
	policy := telemetry.Label{Name: "policy", Value: s.cfg.Policy.String()}

	x.Gauge("gasf_sources_active", "Connected publisher sessions.")
	x.SampleU(uint64(c.SourcesActive))
	x.Gauge("gasf_subscribers_active", "Connected subscriber sessions.")
	x.SampleU(uint64(c.SubscribersActive))
	x.Counter("gasf_sources_accepted_total", "Publisher sessions accepted.")
	x.SampleU(c.SourcesAccepted)
	x.Counter("gasf_sources_finished_total", "Publisher sessions finished.")
	x.SampleU(c.SourcesFinished)
	x.Counter("gasf_sources_expired_total", "Publisher sessions expired by gap detection.")
	x.SampleU(c.SourcesExpired)
	x.Counter("gasf_sources_failed_total", "Publisher sessions ended by an error.")
	x.SampleU(c.SourcesFailed)
	x.Counter("gasf_subscribers_accepted_total", "Subscriber sessions accepted.")
	x.SampleU(c.SubscribersAccepted)
	x.Counter("gasf_subscriber_drops_total", "Deliveries dropped by the slow-consumer policy.")
	x.SampleU(c.SubscriberDrops, policy)
	x.Counter("gasf_handshake_rejects_total", "Connections rejected at handshake.")
	x.SampleU(c.HandshakeRejects)
	x.Counter("gasf_tuples_in_total", "Tuples ingested from publishers.")
	x.SampleU(c.TuplesIn)
	x.Counter("gasf_transmissions_out_total", "Released transmissions fanned out.")
	x.SampleU(c.TransmissionsOut)
	x.Counter("gasf_deliveries_out_total", "Per-subscriber deliveries enqueued.")
	x.SampleU(c.DeliveriesOut)
	x.Counter("gasf_bytes_in_total", "Frame bytes read from publishers.")
	x.SampleU(c.BytesIn)
	x.Counter("gasf_bytes_out_total", "Frame bytes written to subscribers.")
	x.SampleU(c.BytesOut)
	x.Counter("gasf_heartbeats_in_total", "Heartbeat frames received.")
	x.SampleU(c.HeartbeatsIn)
	x.Counter("gasf_log_append_errors_total", "Failed durable-log appends.")
	x.SampleU(c.LogAppendErrors)
	x.Counter("gasf_replays_served_total", "Resume sessions whose history replay completed.")
	x.SampleU(c.ReplaysServed)
	x.Counter("gasf_replay_records_out_total", "Records delivered by history replays.")
	x.SampleU(c.ReplayRecordsOut)
	x.Counter("gasf_source_closures_total", "Publisher session closures by cause.")
	x.SampleU(c.ClosedFlowGap, telemetry.Label{Name: "reason", Value: "flow_gap"})
	x.SampleU(c.ClosedDisconnect, telemetry.Label{Name: "reason", Value: "disconnect"})
	x.SampleU(c.ClosedDrain, telemetry.Label{Name: "reason", Value: "drain"})
	x.SampleU(c.ClosedFinished, telemetry.Label{Name: "reason", Value: "finished"})
	x.Counter("gasf_source_gap_reconnects_total", "Sources that reconnected after a detected flow gap.")
	x.SampleU(c.GapReconnects)
	x.Counter("gasf_gap_notifications_total", "Deadman notifications issued for flow-gap source closures.")
	x.SampleU(c.GapNotifications)
	x.Counter("gasf_qos_degrades_total", "Degrade-policy scale increases (quality coarsened under pressure).")
	x.SampleU(c.QoSDegrades, policy)
	x.Counter("gasf_qos_restores_total", "Degrade-policy scale decreases (quality restored after calm).")
	x.SampleU(c.QoSRestores, policy)
	x.Counter("gasf_subscriber_evictions_total", "Subscriber sessions evicted by the slow-consumer policy.")
	x.SampleU(c.SubscriberEvictions, policy)

	if s.cfg.Federation.Role != federate.RoleSingle {
		role := telemetry.Label{Name: "role", Value: s.cfg.Federation.Role.String()}
		fs := s.FederationStats()
		x.Gauge("gasf_federation_upstream_legs", "Upstream subscriptions an edge holds against cores (one per source+group).")
		x.SampleU(uint64(fs.UpstreamLegs), role)
		x.Gauge("gasf_federation_local_subscribers", "Local subscriber sessions fanned out from upstream legs.")
		x.SampleU(uint64(fs.LocalSubscribers), role)
		x.Gauge("gasf_federation_dedup_ratio", "Local subscribers per upstream leg (group-aware inter-node dedup factor).")
		x.Sample(fs.DedupRatio, role)
		x.Counter("gasf_federation_leg_dials_total", "Upstream legs opened.")
		x.SampleU(c.FedLegDials, role)
		x.Counter("gasf_federation_leg_redials_total", "Upstream legs re-established after a drain, error or rebalance.")
		x.SampleU(c.FedLegRedials, role)
		x.Counter("gasf_federation_leg_resumes_total", "Upstream leg redials that resumed from the core's durable log.")
		x.SampleU(c.FedLegResumes, role)
		x.Counter("gasf_federation_relay_frames_total", "Transmission frames relayed from cores to local members.")
		x.SampleU(c.FedRelayFrames, role)
		x.Counter("gasf_federation_relay_legs_served_total", "Relay-leg sessions accepted from edges (core side).")
		x.SampleU(c.FedRelayLegsIn, role)
		if s.fed != nil && s.tel != nil {
			x.SummaryFamily("gasf_federation_relay_latency_seconds", "Relay delivery latency (tuple source timestamp to edge egress write), sampled, quantiles interpolated in log2 buckets.")
			x.WriteLatencySummary(fs.Relay, role)
		}
	}

	if wheel := s.core.Wheel(); wheel != nil {
		ws := wheel.Stats()
		x.Gauge("gasf_wheel_entries", "Sessions tracked by the flow-gap timer wheel.")
		x.SampleU(uint64(ws.Entries))
		x.Gauge("gasf_wheel_bucket_depth_max", "Deepest wheel bucket drained in one tick (high-water).")
		x.SampleU(uint64(ws.MaxBucketDepth))
		x.Counter("gasf_wheel_inspections_total", "Wheel entries inspected at their deadline.")
		x.SampleU(ws.Inspections)
		x.Counter("gasf_wheel_reschedules_total", "Inspected entries found live and re-armed.")
		x.SampleU(ws.Reschedules)
		x.Counter("gasf_wheel_cascades_total", "Entries redistributed from the coarse wheel level.")
		x.SampleU(ws.Cascades)
		sk := s.sketch.Stats()
		x.Gauge("gasf_gap_sketch_cells", "Cells in the tier-2 silence sketch.")
		x.SampleU(uint64(sk.Cells))
		x.Gauge("gasf_gap_sketch_occupied", "Occupied cells in the tier-2 silence sketch.")
		x.SampleU(uint64(sk.Occupied))
		x.Counter("gasf_gap_sketch_evictions_total", "Sketch cells evicted by row overflow.")
		x.SampleU(sk.Evictions)
		x.SummaryFamily("gasf_expiry_latency_seconds", "How far past its silence deadline each source expiry fired, frugal-estimated quantiles.")
		x.WriteLatencySummary(s.expiryLag.Snapshot())
	}

	// Per-shard runtime series: one family per metric, one labeled
	// sample per shard, each family with its own HELP/TYPE metadata.
	snaps := s.core.Runtime().Metrics()
	shardLabel := func(i int) telemetry.Label {
		return telemetry.Label{Name: "shard", Value: fmt.Sprintf("%d", snaps[i].Shard)}
	}
	x.Gauge("gasf_shard_sources", "Sources currently owned by the shard.")
	for i := range snaps {
		x.SampleU(uint64(snaps[i].Sources), shardLabel(i))
	}
	x.Counter("gasf_shard_enqueued_total", "Tasks enqueued to the shard ring.")
	for i := range snaps {
		x.SampleU(snaps[i].Enqueued, shardLabel(i))
	}
	x.Counter("gasf_shard_processed_total", "Tuples processed by the shard worker.")
	for i := range snaps {
		x.SampleU(snaps[i].Processed, shardLabel(i))
	}
	x.Counter("gasf_shard_dropped_total", "Tasks dropped by the shard (failed source or abort).")
	for i := range snaps {
		x.SampleU(snaps[i].Dropped, shardLabel(i))
	}
	x.Counter("gasf_shard_flushes_total", "Sink flushes issued by the shard worker.")
	for i := range snaps {
		x.SampleU(snaps[i].Flushes, shardLabel(i))
	}
	x.Gauge("gasf_shard_queue_depth", "Tasks currently queued in the shard ring.")
	for i := range snaps {
		x.Sample(float64(snaps[i].QueueDepth), shardLabel(i))
	}
	x.Gauge("gasf_shard_queue_depth_max", "High-water mark of the shard ring depth.")
	for i := range snaps {
		x.Sample(float64(snaps[i].MaxQueueDepth), shardLabel(i))
	}
	x.Counter("gasf_shard_ring_drains_total", "Consumer drain passes over the shard ring.")
	for i := range snaps {
		x.SampleU(snaps[i].Drains, shardLabel(i))
	}
	x.Gauge("gasf_shard_ring_drain_run_avg", "Mean tasks popped per ring drain pass.")
	for i := range snaps {
		x.Sample(snaps[i].AvgDrainRun, shardLabel(i))
	}
	x.Counter("gasf_shard_ring_producer_parks_total", "Producer parks on a full shard ring.")
	for i := range snaps {
		x.SampleU(snaps[i].ProducerParks, shardLabel(i))
	}
	x.Counter("gasf_shard_ring_consumer_parks_total", "Consumer parks on an empty shard ring.")
	for i := range snaps {
		x.SampleU(snaps[i].ConsumerParks, shardLabel(i))
	}

	if s.tel != nil {
		x.Gauge("gasf_telemetry_sample_period", "Stage-timing sampling period (one timed event per period per stage).")
		x.SampleU(uint64(s.tel.SampleEvery()))
		x.HistogramFamily("gasf_stage_duration_seconds", "Sampled hot-path stage durations (power-of-two nanosecond buckets).")
		for _, st := range telemetry.Stages() {
			x.WriteHistogram(s.tel.StageHist(st).Snapshot(), telemetry.Label{Name: "stage", Value: st.Name()})
		}
		x.SummaryFamily("gasf_delivery_latency_seconds", "End-to-end delivery latency (tuple source timestamp to egress write), quantiles interpolated in log2 buckets.")
		x.WriteLatencySummary(s.tel.Delivery().Snapshot(), policy)
		x.SummaryFamily("gasf_group_delivery_latency_seconds", "Per-source-group delivery latency, quantiles interpolated in log2 buckets.")
		for _, g := range s.groupLatencies() {
			x.WriteLatencySummary(g.snap, telemetry.Label{Name: "source", Value: g.name})
		}
	}
	return x.Err()
}

type groupLatency struct {
	name string
	snap telemetry.LatencySnapshot
}

// groupLatencies snapshots the per-source latency views in name order
// (deterministic exposition).
func (s *Server) groupLatencies() []groupLatency {
	var out []groupLatency
	s.core.Inspect(func(src *session.Source[*frameBatch], _ map[string]*session.Member[*frameBatch]) {
		if src.Lat != nil {
			out = append(out, groupLatency{name: src.Name, snap: src.Lat.Snapshot()})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// MetricsHandler serves the observability surface: /metrics (strict
// Prometheus text exposition), /healthz (process liveness), /readyz
// (load-balancer readiness; 503 once a graceful drain has begun),
// /debug/gasf (live JSON introspection of sessions, queues, offsets and
// latency quantiles), and the standard /debug/pprof handlers.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.isDraining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WriteMetrics(w); err != nil {
			s.lg.Error("writing metrics", "err", err)
		}
	})
	mux.HandleFunc("/debug/gasf", func(w http.ResponseWriter, r *http.Request) {
		s.serveDebug(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
