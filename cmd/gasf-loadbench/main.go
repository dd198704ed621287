// Command gasf-loadbench measures the networked server over loopback: it
// starts an in-process gasf server, drives N publishers by M subscribers
// through real TCP sessions, and reports ingest throughput, delivery
// latency percentiles and bytes on the wire as JSON (BENCH_serve.json).
// After the storm it scrapes the server's observability surface: the
// /metrics exposition must pass the strict parser, and the /debug/gasf
// introspection dump supplies the server-side delivery-latency quantiles
// reported next to the client-observed percentiles.
//
// Usage:
//
//	gasf-loadbench -publishers 8 -subscribers 32 -tuples 20000 \
//	               -policy block -shards 4 -procs 4 \
//	               -matrix-procs 1,4 -matrix-shards 1,4 \
//	               -out BENCH_serve.json
//
// Each publisher streams its own source ("bench0".."benchN-1") with
// wall-clock timestamps; subscribers are spread round-robin across the
// sources with a pass-all spec, so delivery latency (client receive time
// minus source timestamp) covers ingest, group decision, release and
// fan-out. With -matrix-procs/-matrix-shards the report also carries an
// open-loop GOMAXPROCS × shards scaling matrix measured with the same
// session layout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"gasf"
	"gasf/internal/metrics"
	"gasf/internal/telemetry"
)

type latencyStats struct {
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// serverLatency carries the server's own view of delivery latency
// (tuple source timestamp to egress write), read from /debug/gasf:
// histogram-interpolated quantiles, reported next to the client-observed
// percentiles so the two measurement points can be compared.
type serverLatency struct {
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	Count uint64  `json:"count"`
}

type report struct {
	Publishers      int    `json:"publishers"`
	Subscribers     int    `json:"subscribers"`
	TuplesPerSource int    `json:"tuples_per_source"`
	Policy          string `json:"policy"`
	// RatePerPublisher is the paced publish rate in tuples/sec; 0 means
	// an unthrottled open loop, whose latency percentiles measure
	// standing-queue drain rather than steady state — the two
	// configurations are not comparable.
	RatePerPublisher int          `json:"rate_per_publisher"`
	Pacing           string       `json:"pacing"`
	GOMAXPROCS       int          `json:"gomaxprocs"`
	NumCPU           int          `json:"num_cpu"`
	Shards           int          `json:"shards"`
	SubscriberQueue  int          `json:"subscriber_queue"`
	ElapsedSec       float64      `json:"elapsed_sec"`
	TuplesIn         uint64       `json:"tuples_in"`
	TuplesPerSec     float64      `json:"tuples_per_sec"`
	Deliveries       int          `json:"deliveries"`
	DeliveriesPerSec float64      `json:"deliveries_per_sec"`
	SubscriberDrops  uint64       `json:"subscriber_drops"`
	BytesIn          uint64       `json:"bytes_in"`
	BytesOut         uint64       `json:"bytes_out"`
	Latency          latencyStats `json:"delivery_latency"`
	// ServerLatency is the server-side delivery-latency view, scraped
	// from /debug/gasf after the storm (see serverLatency). The scrape
	// also strict-parses the /metrics exposition, so a malformed metrics
	// surface fails the bench.
	ServerLatency *serverLatency `json:"server_delivery_latency,omitempty"`
	// Replay* report the -resume mode: after the storm every subscriber
	// leaves and re-subscribes with WithResumeFrom(0) against the
	// durable log, draining its whole history — the rate is the server's
	// replay (catch-up) throughput.
	ReplayDeliveries       int     `json:"replay_deliveries,omitempty"`
	ReplayElapsedSec       float64 `json:"replay_elapsed_sec,omitempty"`
	ReplayDeliveriesPerSec float64 `json:"replay_deliveries_per_sec,omitempty"`
	// ScalingMatrix is the open-loop GOMAXPROCS × shards sweep (same
	// publisher/subscriber layout, unthrottled).
	ScalingMatrix []scaleCell `json:"scaling_matrix,omitempty"`
	// Overload is the -overload section: a sustained run publishing at
	// twice the subscribers' drain capacity under the degrade policy.
	// The run fails unless it survived losslessly (zero drops, zero
	// evictions) while actually degrading.
	Overload *overloadStats `json:"overload,omitempty"`
	// P99Under2xOverload mirrors Overload.P99Ms at the top level — the
	// acceptance number soft-gated against the committed baseline by
	// warnIfWorse.
	P99Under2xOverload float64 `json:"p99_under_2x_overload,omitempty"`

	// Counter snapshots for mode-level assertions; not serialized.
	qosDegrades         uint64
	qosRestores         uint64
	subscriberEvictions uint64
	maxQoS              float64
}

// overloadStats is the "overload" section of BENCH_serve.json: what the
// 2x-overload run looked like and how the degrade policy absorbed it.
type overloadStats struct {
	Publishers          int     `json:"publishers"`
	Subscribers         int     `json:"subscribers"`
	TuplesPerSource     int     `json:"tuples_per_source"`
	RatePerPublisher    int     `json:"rate_per_publisher"`
	DrainPerSubscriber  int     `json:"drain_per_subscriber"`
	SubscriberQueue     int     `json:"subscriber_queue"`
	ElapsedSec          float64 `json:"elapsed_sec"`
	Deliveries          int     `json:"deliveries"`
	QoSDegrades         uint64  `json:"qos_degrades"`
	QoSRestores         uint64  `json:"qos_restores"`
	MaxScaleSeen        float64 `json:"max_scale_seen"`
	SubscriberDrops     uint64  `json:"subscriber_drops"`
	SubscriberEvictions uint64  `json:"subscriber_evictions"`
	P99Ms               float64 `json:"p99_ms"`
}

// scaleCell is one open-loop cell of the scaling matrix.
type scaleCell struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Shards       int     `json:"shards"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	TuplesIn     uint64  `json:"tuples_in"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	Deliveries   int     `json:"deliveries"`
}

// benchConfig parameterizes one measured serve run.
type benchConfig struct {
	publishers, subscribers, tuples, queue, shards, rate int
	policy                                               gasf.SlowPolicy
	// resume runs the durable catch-up benchmark: the server writes a
	// segment log, the storm subscribers leave after their quota, and a
	// second wave resumes from offset 0 to measure replay throughput.
	resume bool
	// perRecv throttles every subscriber by sleeping this long per
	// delivery, capping its drain capacity at 1/perRecv tuples/sec —
	// the pressure source for the -overload mode.
	perRecv time.Duration
	// recvBuf pins each subscription's kernel receive buffer (bytes) so
	// consumer lag surfaces as TCP backpressure at the server instead of
	// vanishing into autotuned kernel buffering; 0 keeps OS defaults.
	recvBuf int
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gasf-loadbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gasf-loadbench", flag.ContinueOnError)
	var (
		publishers   = fs.Int("publishers", 8, "publisher (source) sessions")
		subscribers  = fs.Int("subscribers", 32, "subscriber sessions, spread across sources")
		tuples       = fs.Int("tuples", 20000, "tuples per publisher")
		queue        = fs.Int("queue", 1024, "per-subscriber send queue (release cycles)")
		policy       = fs.String("policy", "block", "slow-consumer policy: block or drop")
		shards       = fs.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
		rate         = fs.Int("rate", 0, "tuples/sec per publisher (0 = unthrottled open loop)")
		procs        = fs.Int("procs", 0, "GOMAXPROCS for the main run (0 = inherit)")
		matrixProcs  = fs.String("matrix-procs", "", "comma-separated GOMAXPROCS values for the open-loop scaling matrix (empty = skip)")
		matrixShards = fs.String("matrix-shards", "", "comma-separated shard counts for the scaling matrix (default: same as -matrix-procs)")
		out          = fs.String("out", "BENCH_serve.json", "report path (- for stdout only)")
		cpuProf      = fs.String("cpuprofile", "", "write a CPU profile of the measured run")
		resume       = fs.Bool("resume", false, "durable mode: log to a temp dir, then measure replay throughput of a full catch-up wave")

		overload       = fs.Bool("overload", false, "after the main run, measure a 2x sustained overload under the degrade policy (publishers paced at twice the subscribers' drain capacity); fails unless it is lossless, and records p99_under_2x_overload in -out")
		overloadTuples = fs.Int("overload-tuples", 8000, "tuples per publisher for the -overload run")

		chaos     = fs.Bool("chaos", false, "chaos mode: durable server behind a fault-injecting proxy, killed and restarted mid-run; verifies gapless, duplicate-free resumed delivery on every subscriber (skips the storm bench; merges a \"chaos\" section into -out)")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for the injected network faults in -chaos")

		federated = fs.Bool("federated", false, "federated mode: one core plus two edges in-process, subscriber sessions sharing groups; reports the upstream dedup ratio and relay latency (skips the storm bench; merges a \"federation\" section into -out)")

		sources       = fs.Int("sources", 0, "scale mode: cycle this many sources through the server in waves of -resident, hold the last wave idle, and measure per-source memory and flow-gap expiry (skips the storm bench; merges an idle_sources section into -out)")
		residentSrc   = fs.Int("resident", 5000, "scale mode: concurrent raw publisher sessions per wave (clamped to RLIMIT_NOFILE headroom)")
		hold          = fs.Duration("hold", 3*time.Second, "scale mode: idle hold over the resident set")
		scaleTimeout  = fs.Duration("source-timeout", 0, "scale mode: server flow-gap timeout (0 = 2x -hold, at least 2s)")
		maxHeapPerSrc = fs.Int("max-heap-per-source", 0, "scale mode: fail if heap bytes per idle source exceed this (0 = report only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sources > 0 {
		st := *scaleTimeout
		if st <= 0 {
			st = max(2*(*hold), 2*time.Second)
		}
		if st <= *hold {
			return fmt.Errorf("-source-timeout %v must exceed -hold %v or the resident set expires mid-hold", st, *hold)
		}
		return runScale(scaleConfig{
			sources:          *sources,
			resident:         *residentSrc,
			hold:             *hold,
			sourceTimeout:    st,
			maxHeapPerSource: *maxHeapPerSrc,
		}, *out)
	}
	if *publishers < 1 || *subscribers < 1 || *tuples < 1 {
		return fmt.Errorf("need at least one publisher, subscriber and tuple")
	}
	if *federated {
		return runFederated(federatedConfig{
			publishers:  *publishers,
			subscribers: *subscribers,
			tuples:      *tuples,
			queue:       *queue,
		}, *out)
	}
	if *chaos {
		if *tuples < 8 {
			return fmt.Errorf("-chaos needs at least 8 tuples per source to split across the restart")
		}
		return runChaos(chaosConfig{
			publishers:  *publishers,
			subscribers: *subscribers,
			tuples:      *tuples,
			queue:       *queue,
			seed:        *chaosSeed,
		}, *out)
	}
	pol, err := gasf.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	if *resume && pol != gasf.PolicyBlock {
		// The resume storm counts on every subscriber receiving its full
		// quota before leaving; dropped deliveries would hang it.
		return fmt.Errorf("-resume requires -policy block")
	}
	mp, err := metrics.ParseIntList(*matrixProcs)
	if err != nil {
		return err
	}
	ms, err := metrics.ParseIntList(*matrixShards)
	if err != nil {
		return err
	}
	if len(ms) == 0 {
		ms = mp
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	rep, err := measure(benchConfig{
		publishers:  *publishers,
		subscribers: *subscribers,
		tuples:      *tuples,
		queue:       *queue,
		shards:      *shards,
		rate:        *rate,
		policy:      pol,
		resume:      *resume,
	})
	if err != nil {
		return err
	}

	// The scaling matrix re-runs the open-loop configuration per
	// (GOMAXPROCS, shards) cell; the paced acceptance numbers above stay
	// untouched by the sweep.
	restore := runtime.GOMAXPROCS(0)
	for _, p := range mp {
		for _, sh := range ms {
			runtime.GOMAXPROCS(p)
			cellRep, err := measure(benchConfig{
				publishers:  *publishers,
				subscribers: *subscribers,
				tuples:      *tuples,
				queue:       *queue,
				shards:      sh,
				rate:        0,
				policy:      pol,
			})
			if err != nil {
				runtime.GOMAXPROCS(restore)
				return fmt.Errorf("matrix cell procs=%d shards=%d: %w", p, sh, err)
			}
			rep.ScalingMatrix = append(rep.ScalingMatrix, scaleCell{
				GOMAXPROCS:   p,
				Shards:       sh,
				ElapsedSec:   cellRep.ElapsedSec,
				TuplesIn:     cellRep.TuplesIn,
				TuplesPerSec: cellRep.TuplesPerSec,
				Deliveries:   cellRep.Deliveries,
			})
			fmt.Fprintf(os.Stderr, "matrix: procs=%d shards=%d %.0f tuples/s\n", p, sh, cellRep.TuplesPerSec)
		}
	}
	runtime.GOMAXPROCS(restore)

	if *overload {
		if err := measureOverload(rep, *overloadTuples, *shards, *out); err != nil {
			return err
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", enc)
	if *out != "-" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	if rep.TuplesPerSec < 1 {
		return fmt.Errorf("implausible throughput %.1f tuples/sec", rep.TuplesPerSec)
	}
	return nil
}

// measure runs one full serve benchmark: a fresh server, a dialed
// Broker whose sessions drive the load, the publish/receive storm, and a
// graceful shutdown. The load generator itself runs on the unified
// context-first API (gasf.Dial), so the measured path is exactly what
// applications use.
func measure(cfg benchConfig) (*report, error) {
	ctx := context.Background()
	scfg := gasf.ServerConfig{
		Engine:          gasf.Options{ShardCount: cfg.shards},
		SubscriberQueue: cfg.queue,
		Policy:          cfg.policy,
		// Bounded kernel buffering on both legs (paired with recvBuf on
		// the subscribe side) so a throttled consumer's lag reaches the
		// server's delivery queue as TCP backpressure within the run.
		SubscriberSendBuffer: cfg.recvBuf,
	}
	if cfg.resume {
		dir, err := os.MkdirTemp("", "gasf-loadbench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		scfg.DataDir = dir
	}
	srv, err := gasf.StartServer(scfg)
	if err != nil {
		return nil, err
	}
	b, err := gasf.Dial(srv.Addr().String())
	if err != nil {
		return nil, err
	}
	schema, err := gasf.NewSchema("v")
	if err != nil {
		return nil, err
	}

	// Dial every session up front so the measured window covers steady
	// streaming, not connection setup.
	pubs := make([]gasf.Source, cfg.publishers)
	for i := range pubs {
		if pubs[i], err = b.OpenSource(ctx, fmt.Sprintf("bench%d", i), schema); err != nil {
			return nil, err
		}
	}
	subs := make([]gasf.Subscription, cfg.subscribers)
	for i := range subs {
		source := fmt.Sprintf("bench%d", i%cfg.publishers)
		app := fmt.Sprintf("app%d", i)
		var sopts []gasf.SubOption
		if cfg.recvBuf > 0 {
			sopts = append(sopts, gasf.WithRecvBuffer(cfg.recvBuf))
		}
		if subs[i], err = b.Subscribe(ctx, app, source, "DC1(v, 0.5, 0)", sopts...); err != nil {
			return nil, err
		}
	}

	var wg sync.WaitGroup
	latencies := make([][]time.Duration, cfg.subscribers)
	maxQoS := make([]float64, cfg.subscribers)
	errCh := make(chan error, cfg.publishers+cfg.subscribers)

	start := time.Now()
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub gasf.Subscription) {
			defer wg.Done()
			lats := make([]time.Duration, 0, cfg.tuples)
			var d gasf.Delivery
			for {
				err := sub.RecvInto(ctx, &d)
				if errors.Is(err, gasf.ErrStreamEnded) {
					break
				}
				if err != nil {
					errCh <- fmt.Errorf("subscriber %d: %w", i, err)
					break
				}
				lats = append(lats, d.ReceivedAt.Sub(d.Tuple.TS))
				// The throttle caps this subscriber's drain capacity; the
				// QoS probe rides on it because only throttled (-overload)
				// runs care about the applied degrade scale.
				if cfg.perRecv > 0 {
					if q := sub.QoS(); q > maxQoS[i] {
						maxQoS[i] = q
					}
					time.Sleep(cfg.perRecv)
				}
				// Resume mode: the pass-all spec over step-1 values makes
				// deliveries deterministic — each arriving tuple closes and
				// releases the previous one's singleton set, so exactly
				// tuples-1 deliveries precede Finish. Consuming that quota
				// and leaving frees the app name for the catch-up wave.
				if cfg.resume && len(lats) == cfg.tuples-1 {
					if err := sub.Close(ctx); err != nil {
						errCh <- fmt.Errorf("subscriber %d leave: %w", i, err)
					}
					break
				}
			}
			latencies[i] = lats
		}(i, sub)
	}
	// Paced publishing sends a burst every tick; unthrottled runs flood
	// with backpressure only (their latency tail then measures drain
	// time of the standing queue, not steady state). Each tick's burst
	// is published with batched writes (one syscall and one server-side
	// ring submission per pubBatch frames), so the load generator
	// measures the pipeline, not its own per-tuple syscalls.
	const tick = 5 * time.Millisecond
	const pubBatch = 256
	burst := cfg.tuples // unthrottled: one burst
	if cfg.rate > 0 {
		burst = int(float64(cfg.rate) * tick.Seconds())
		if burst < 1 {
			burst = 1
		}
	}
	for i, pub := range pubs {
		wg.Add(1)
		go func(i int, pub gasf.Source) {
			defer wg.Done()
			ticker := time.NewTicker(tick)
			defer ticker.Stop()
			batch := make([]*gasf.Tuple, 0, pubBatch)
			// backing holds the value cells for one burst; NewTuple copies
			// them, so the measured loop allocates no per-tuple value
			// slices of its own (matching the pre-migration generator).
			backing := make([]float64, pubBatch)
			lastTS := time.Time{}
			seq := 0
			// Values step by 1 so the DC1(v, 0.5, 0) subscribers treat
			// every tuple as a closed singleton set (pass-all). Wall-clock
			// stamps, strictly increasing within a burst, keep the
			// delivery latency measurement end to end.
			for n := 0; n < cfg.tuples; {
				end := n + burst
				if end > cfg.tuples {
					end = cfg.tuples
				}
				for n < end {
					k := end - n
					if k > pubBatch {
						k = pubBatch
					}
					batch = batch[:0]
					ts := time.Now()
					for j := 0; j < k; j++ {
						if !ts.After(lastTS) {
							ts = lastTS.Add(time.Nanosecond)
						}
						backing[j] = float64(n + j)
						t, err := gasf.NewTuple(schema, seq, ts, backing[j:j+1])
						if err != nil {
							errCh <- fmt.Errorf("publisher %d tuple %d: %w", i, n, err)
							return
						}
						batch = append(batch, t)
						lastTS = ts
						ts = ts.Add(time.Nanosecond)
						seq++
					}
					if err := pub.PublishBatch(ctx, batch); err != nil {
						errCh <- fmt.Errorf("publisher %d tuple %d: %w", i, n, err)
						return
					}
					n += k
				}
				if cfg.rate > 0 && n < cfg.tuples {
					<-ticker.C
				}
			}
			// Resume mode keeps the sources open: a finished source tears
			// down its group, and the catch-up wave still needs to join.
			if cfg.resume {
				return
			}
			if err := pub.Finish(ctx); err != nil {
				errCh <- fmt.Errorf("publisher %d finish: %w", i, err)
			}
		}(i, pub)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		return nil, err
	}

	// The catch-up wave: every app re-subscribes with WithResumeFrom(0)
	// and drains its history from the durable log — at least the storm's
	// quota names each app, since every storm release happened while all
	// subscribers were still live.
	quota := cfg.tuples - 1
	var replayDeliveries int
	var replayElapsed time.Duration
	if cfg.resume {
		rstart := time.Now()
		var rwg sync.WaitGroup
		rerrCh := make(chan error, cfg.subscribers)
		for i := 0; i < cfg.subscribers; i++ {
			source := fmt.Sprintf("bench%d", i%cfg.publishers)
			app := fmt.Sprintf("app%d", i)
			sub, err := b.Subscribe(ctx, app, source, "DC1(v, 0.5, 0)", gasf.WithResumeFrom(0))
			if err != nil {
				return nil, fmt.Errorf("resume subscribe %s: %w", app, err)
			}
			rwg.Add(1)
			go func(i int, sub gasf.Subscription) {
				defer rwg.Done()
				var d gasf.Delivery
				for n := 0; n < quota; n++ {
					if err := sub.RecvInto(ctx, &d); err != nil {
						rerrCh <- fmt.Errorf("resume subscriber %d after %d deliveries: %w", i, n, err)
						return
					}
				}
				if err := sub.Close(ctx); err != nil {
					rerrCh <- fmt.Errorf("resume subscriber %d leave: %w", i, err)
				}
			}(i, sub)
		}
		rwg.Wait()
		replayElapsed = time.Since(rstart)
		close(rerrCh)
		for err := range rerrCh {
			return nil, err
		}
		replayDeliveries = cfg.subscribers * quota
		for _, pub := range pubs {
			if err := pub.Finish(ctx); err != nil {
				return nil, fmt.Errorf("finish after resume: %w", err)
			}
		}
	}

	c := srv.Counters()
	var all []time.Duration
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	pacing := "open-loop"
	if cfg.rate > 0 {
		pacing = "paced"
	}
	rep := &report{
		Publishers:       cfg.publishers,
		Subscribers:      cfg.subscribers,
		TuplesPerSource:  cfg.tuples,
		Policy:           cfg.policy.String(),
		RatePerPublisher: cfg.rate,
		Pacing:           pacing,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		Shards:           srv.Runtime().Shards(),
		SubscriberQueue:  cfg.queue,
		ElapsedSec:       elapsed.Seconds(),
		TuplesIn:         c.TuplesIn,
		TuplesPerSec:     float64(c.TuplesIn) / elapsed.Seconds(),
		Deliveries:       len(all),
		DeliveriesPerSec: float64(len(all)) / elapsed.Seconds(),
		SubscriberDrops:  c.SubscriberDrops,
		BytesIn:          c.BytesIn,
		BytesOut:         c.BytesOut,
		Latency:          summarize(all),

		qosDegrades:         c.QoSDegrades,
		qosRestores:         c.QoSRestores,
		subscriberEvictions: c.SubscriberEvictions,
	}
	for _, q := range maxQoS {
		if q > rep.maxQoS {
			rep.maxQoS = q
		}
	}
	if cfg.resume {
		rep.ReplayDeliveries = replayDeliveries
		rep.ReplayElapsedSec = replayElapsed.Seconds()
		if s := replayElapsed.Seconds(); s > 0 {
			rep.ReplayDeliveriesPerSec = float64(replayDeliveries) / s
		}
	}
	if rep.ServerLatency, err = scrapeServer(srv); err != nil {
		return nil, err
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Close(sctx); err != nil {
		return nil, fmt.Errorf("broker close: %w", err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return rep, nil
}

// measureOverload runs the -overload acceptance mode and attaches its
// results to rep: publishers pace at exactly twice the drain capacity
// of their throttled subscribers, so without intervention the queues
// diverge without bound. The degrade policy must absorb the overload by
// coarsening precision — losslessly (zero drops, zero evictions) and
// with bounded latency. The resulting p99 lands in
// rep.P99Under2xOverload, soft-gated against the committed baseline in
// out by warnIfWorse.
func measureOverload(rep *report, tuples, shards int, out string) error {
	// Each subscriber sleeps 1ms per delivery (drain capacity 1000
	// tuples/s); each source publishes at 2000/s. Under the
	// DC1(v, 0.5, 0) spec over step-1 values, scale 4 (delta 2) halves
	// the delivered rate to exactly the drain capacity — the governor's
	// sustainable operating point.
	const drain = 1000
	ocfg := benchConfig{
		publishers:  4,
		subscribers: 8,
		tuples:      tuples,
		queue:       64,
		shards:      shards,
		rate:        2 * drain,
		policy:      gasf.PolicyDegrade,
		perRecv:     time.Second / drain,
		recvBuf:     8 << 10,
	}
	fmt.Fprintf(os.Stderr, "overload: %d pub at %d tuples/s vs %d sub draining %d/s (degrade policy)\n",
		ocfg.publishers, ocfg.rate, ocfg.subscribers, drain)
	orep, err := measure(ocfg)
	if err != nil {
		return fmt.Errorf("overload run: %w", err)
	}
	if orep.SubscriberDrops != 0 {
		return fmt.Errorf("overload run dropped %d deliveries; the degrade policy must be lossless", orep.SubscriberDrops)
	}
	if orep.subscriberEvictions != 0 {
		return fmt.Errorf("overload run evicted %d subscribers; the degrade policy must never evict", orep.subscriberEvictions)
	}
	if orep.qosDegrades == 0 {
		return fmt.Errorf("overload run never degraded — not an overload (rate %d/s vs drain %d/s)", ocfg.rate, drain)
	}
	rep.Overload = &overloadStats{
		Publishers:          ocfg.publishers,
		Subscribers:         ocfg.subscribers,
		TuplesPerSource:     ocfg.tuples,
		RatePerPublisher:    ocfg.rate,
		DrainPerSubscriber:  drain,
		SubscriberQueue:     ocfg.queue,
		ElapsedSec:          orep.ElapsedSec,
		Deliveries:          orep.Deliveries,
		QoSDegrades:         orep.qosDegrades,
		QoSRestores:         orep.qosRestores,
		MaxScaleSeen:        orep.maxQoS,
		SubscriberDrops:     orep.SubscriberDrops,
		SubscriberEvictions: orep.subscriberEvictions,
		P99Ms:               orep.Latency.P99Ms,
	}
	rep.P99Under2xOverload = orep.Latency.P99Ms
	fmt.Fprintf(os.Stderr, "overload: p99 %.1fms, max scale %g, %d degrades / %d restores, zero drops\n",
		orep.Latency.P99Ms, orep.maxQoS, orep.qosDegrades, orep.qosRestores)

	// Soft-gate against the committed baseline: a blow-up past the
	// threshold warns loudly, and the refreshed number still lands in
	// -out for review.
	if out != "-" {
		if prev, err := os.ReadFile(out); err == nil {
			var base struct {
				P99 float64 `json:"p99_under_2x_overload"`
			}
			if json.Unmarshal(prev, &base) == nil && base.P99 > 0 {
				warnIfWorse("p99_under_2x_overload ms", rep.P99Under2xOverload, base.P99, false)
			}
		}
	}
	return nil
}

// softGate is the relative change against a committed baseline past
// which warnIfWorse complains.
const softGate = 0.5

// warnIfWorse prints a warning when cur is worse than base by more than
// softGate: higher for a latency, lower when lowerIsWorse (a ratio the
// run exists to keep up). A missing value on either side skips the
// check. It never fails the run; the number still lands in -out.
func warnIfWorse(name string, cur, base float64, lowerIsWorse bool) {
	if cur <= 0 || base <= 0 {
		return
	}
	worse := cur > base*(1+softGate)
	if lowerIsWorse {
		worse = cur < base*(1-softGate)
	}
	if worse {
		fmt.Fprintf(os.Stderr, "gasf-loadbench: WARNING: %s regressed: %.2f vs baseline %.2f (%+.0f%%, threshold %.0f%%)\n",
			name, cur, base, 100*(cur/base-1), 100*softGate)
	}
}

// scrapeServer exercises the observability surface the way a monitoring
// stack would — over HTTP against MetricsHandler — and returns the
// server-side delivery quantiles: /metrics must pass the strict
// exposition parser, and /debug/gasf supplies the aggregate delivery
// latency.
func scrapeServer(srv *gasf.Server) (*serverLatency, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	hs := &http.Server{Handler: srv.MetricsHandler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	if err := telemetry.Validate(body); err != nil {
		return nil, fmt.Errorf("/metrics exposition invalid: %w", err)
	}

	resp, err = http.Get(base + "/debug/gasf")
	if err != nil {
		return nil, fmt.Errorf("scrape /debug/gasf: %w", err)
	}
	var dbg struct {
		Telemetry *telemetry.Snapshot `json:"telemetry"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dbg)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("decode /debug/gasf: %w", err)
	}
	if dbg.Telemetry == nil {
		return nil, nil
	}
	d := dbg.Telemetry.Delivery
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return &serverLatency{P50Ms: ms(d.P50), P99Ms: ms(d.P99), Count: d.Count}, nil
}

// summarize computes latency percentiles in milliseconds.
func summarize(lats []time.Duration) latencyStats {
	if len(lats) == 0 {
		return latencyStats{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return ms(lats[i])
	}
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return latencyStats{
		P50Ms:  pct(0.50),
		P90Ms:  pct(0.90),
		P95Ms:  pct(0.95),
		P99Ms:  pct(0.99),
		MeanMs: ms(sum / time.Duration(len(lats))),
		MaxMs:  ms(lats[len(lats)-1]),
	}
}
