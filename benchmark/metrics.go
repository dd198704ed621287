package main

import (
	"fmt"
	"io"

	"gasf/internal/metrics"
)

// metricDef declares one reported metric; BENCHMARK.json repeats these
// lists (bench_test.go holds the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_s", "1/s"},
	{"cpu_us_per_tuple", "us"},
	{"allocs_per_tuple", "count"},
	{"alloc_bytes_per_tuple", "B"},
	{"heap_live_mb", "MiB"},
	{"oi_ratio", "ratio"},
}

var stageNames = []string{"ingest_decode", "ring_wait", "engine_step", "fanout_enqueue", "egress_write"}

// perLayer are the metrics of a traced run (-trace 1), named
// layer.metric after the repository's modules.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"filter.process_ns_per_tuple", "ns"},
		{"core.step_ns_per_tuple", "ns"},
		{"core.allocs_per_tuple", "count"},
		{"core.bytes_per_tuple", "B"},
		{"core.regions", "count"},
		{"core.mean_region_tuples", "count"},
		{"core.greedy_cpu_frac", "ratio"},
		{"shard.submit_ns_per_tuple", "ns"},
		{"shard.overhead_ns_per_tuple", "ns"},
		{"shard.avg_drain_run", "count"},
		{"shard.max_queue_depth", "count"},
		{"shard.producer_parks", "count"},
		{"shard.consumer_parks", "count"},
		{"wire.decode_ns_per_tuple", "ns"},
		{"wire.encode_ns_per_transmission", "ns"},
		{"wire.bytes_per_transmission", "B"},
		{"broker.publish_ns_per_tuple", "ns"},
		{"broker.overhead_ns_per_tuple", "ns"},
		{"broker.deliver_p50_ms", "ms"},
		{"broker.deliver_p99_ms", "ms"},
	}
	for _, st := range stageNames {
		defs = append(defs,
			metricDef{"server.stage." + st + ".mean_ns", "ns"},
			metricDef{"server.stage." + st + ".p99_ns", "ns"})
	}
	return append(defs, []metricDef{
		{"server.bytes_in_per_tuple", "B"},
		{"server.wire_bytes_per_tuple", "B"},
		{"server.subscriber_drops", "count"},
		{"server.handshake_ms", "ms"},
		{"seglog.append_ns_per_record", "ns"},
		{"seglog.read_ns_per_record", "ns"},
		{"seglog.bytes_per_record", "B"},
		{"seglog.append_errors", "count"},
		{"seglog.replay_per_s", "1/s"},
		{"relay.hop_p50_ms", "ms"},
		{"relay.hop_p99_ms", "ms"},
		{"relay.dedup_ratio", "ratio"},
		{"relay.frames", "count"},
		{"relay.leg_dials", "count"},
		{"relay.leg_redials", "count"},
		{"telemetry.overhead_frac", "ratio"},
		{"telemetry.frugal_p99_ratio", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.drain_ms", "ms"},
		{"loadgen.reference_s", "s"},
		{"budget.accounted_frac", "ratio"},
	}...)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs a declared list with measured values; a metric a
// workload's layers never touch reports 0.
func collect(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", d.name, vals[d.name].Value, d.unit)
	}
}

// cpuUsPerTuple is the closed-loop phase's process CPU per input tuple:
// the median over its rounds.
func (r *runResult) cpuUsPerTuple() float64 {
	per := make([]float64, len(r.satCPU))
	for j, cpu := range r.satCPU {
		per[j] = float64(cpu) / 1e3 / float64(r.satTuples)
	}
	return median(per)
}

// tuplesPerS is the closed-loop phase's throughput: the median over its
// rounds.
func (r *runResult) tuplesPerS() float64 {
	per := make([]float64, len(r.satWall))
	for j, wall := range r.satWall {
		per[j] = float64(r.satTuples) / wall.Seconds()
	}
	return median(per)
}

// latencies pools the open-loop samples of every window.
func (r *runResult) latencies() []float64 {
	var all []float64
	for _, w := range r.latMs {
		all = append(all, w...)
	}
	return all
}

// deliverP50 is the open-loop phase's median delivery latency: the
// median over its windows of each window's median. Windows with too few
// samples to have one (the resumed sessions' catch-up) are left out.
func (r *runResult) deliverP50() float64 {
	var per []float64
	for _, w := range r.latMs {
		if len(w) >= 100 {
			per = append(per, median(w))
		}
	}
	return median(per)
}

// endToEndValues derives the untraced run's metrics.
func endToEndValues(r *runResult) map[string]float64 {
	tuples := float64(r.satTuples * len(r.satWall))
	return map[string]float64{
		"setup_s":               median(r.setupS),
		"tuples_per_s":          r.tuplesPerS(),
		"cpu_us_per_tuple":      r.cpuUsPerTuple(),
		"allocs_per_tuple":      float64(r.satMallocs) / tuples,
		"alloc_bytes_per_tuple": float64(r.satHeap) / tuples,
		"heap_live_mb":          r.heapLiveMB,
		"oi_ratio":              float64(r.snap.transmissions) / float64(r.snap.tuplesIn),
	}
}

// layerValues derives the traced run's metrics from the isolation
// passes, the public snapshots of the traced pass, and the untraced pass
// run beside it on the same inputs.
func layerValues(in *inputs, plain, traced *runResult, iso map[string]float64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for name, val := range iso {
		v[name] = val
	}
	s := traced.snap
	tuplesIn := float64(s.tuplesIn)
	v["shard.avg_drain_run"] = s.avgDrainRun
	v["shard.max_queue_depth"] = float64(s.maxQueueDepth)
	v["shard.producer_parks"] = float64(s.producerParks)
	v["shard.consumer_parks"] = float64(s.consumerParks)
	v["broker.publish_ns_per_tuple"] = traced.publishNs / float64(traced.pacedTuples)
	v["broker.overhead_ns_per_tuple"] = plain.cpuUsPerTuple()*1e3 - iso["shard.submit_ns_per_tuple"]
	lat := traced.latencies()
	v["broker.deliver_p50_ms"] = traced.deliverP50()
	v["broker.deliver_p99_ms"] = metrics.Quantile(lat, 0.99)
	var stageSum float64
	for _, st := range s.stages {
		v["server.stage."+st.name+".mean_ns"] = st.meanNs
		v["server.stage."+st.name+".p99_ns"] = st.p99Ns
		stageSum += st.meanNs
	}
	v["server.bytes_in_per_tuple"] = float64(s.bytesIn) / tuplesIn
	v["server.wire_bytes_per_tuple"] = float64(s.bytesOut) / tuplesIn
	v["server.subscriber_drops"] = float64(s.subscriberDrops)
	v["server.handshake_ms"] = metrics.Summarize(traced.handshakeMs).Mean
	v["seglog.append_errors"] = float64(s.logAppendErrors)
	if traced.replaySecond > 0 {
		v["seglog.replay_per_s"] = float64(traced.replayed) / traced.replaySecond
	}
	v["relay.hop_p50_ms"] = median(traced.hopMs)
	v["relay.hop_p99_ms"] = metrics.Quantile(traced.hopMs, 0.99)
	if s.legs > 0 {
		v["relay.dedup_ratio"] = float64(s.localSubs) / float64(s.legs)
	}
	v["relay.frames"] = float64(s.relayFrames)
	v["relay.leg_dials"] = float64(s.legDials)
	v["relay.leg_redials"] = float64(s.legRedials)
	v["telemetry.overhead_frac"] = traced.cpuUsPerTuple()/plain.cpuUsPerTuple() - 1
	v["telemetry.frugal_p99_ratio"] = frugalRatio(traced.latMs)
	v["runtime.gc_cycles"] = float64(traced.gcCycles)
	v["runtime.gc_pause_ms"] = traced.gcPauseMs
	v["loadgen.lag_p99_ms"] = metrics.Quantile(traced.lagMs, 0.99)
	v["loadgen.drain_ms"] = traced.drainMs
	v["loadgen.reference_s"] = in.referenceS
	// The parts against the whole: the sampled stage means (plus the
	// relay hop, where there is one) over the median delivery latency of
	// the same traced open-loop phase.
	if p50 := median(lat); p50 > 0 {
		v["budget.accounted_frac"] = (stageSum/1e6 + v["relay.hop_p50_ms"]) / p50
	}
	return v
}

// printBudget writes the per-stage rows beside the end-to-end figure
// they should sum to.
func printBudget(w io.Writer, traced *runResult, v map[string]float64) {
	lat := traced.latencies()
	p50 := median(lat)
	fmt.Fprintf(w, "  latency budget (traced open-loop phase, deliver_p50 %.4f ms, %d samples)\n", p50, len(lat))
	fmt.Fprintf(w, "  %-18s %10s %12s %12s %8s\n", "stage", "samples", "mean_ns", "p99_ns", "of_p50")
	row := func(name string, count uint64, meanNs, p99Ns float64) {
		share := 0.0
		if p50 > 0 {
			share = meanNs / 1e6 / p50
		}
		fmt.Fprintf(w, "  %-18s %10d %12.0f %12.0f %7.1f%%\n", name, count, meanNs, p99Ns, 100*share)
	}
	for _, st := range traced.snap.stages {
		row(st.name, st.count, st.meanNs, st.p99Ns)
	}
	if len(traced.hopMs) > 0 {
		row("relay_hop", uint64(len(traced.hopMs)), v["relay.hop_p50_ms"]*1e6, v["relay.hop_p99_ms"]*1e6)
	}
	fmt.Fprintf(w, "  accounted_frac %.3f\n", v["budget.accounted_frac"])
}
