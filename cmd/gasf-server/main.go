// Command gasf-server runs the networked group-aware stream filtering
// service: publishers stream wire-encoded tuples over TCP, applications
// subscribe with quality specifications, and every source runs a
// group-aware engine on the sharded runtime with live membership.
//
// Usage:
//
//	gasf-server -addr :7070 -metrics-addr :9090 \
//	            -alg RG -policy drop -queue 256 \
//	            -heartbeat 2s -source-timeout 30s \
//	            -data-dir /var/lib/gasf -fsync interval \
//	            -log-format json -telemetry-sample 64
//
// With -data-dir set the server is durable: every delivered transmission
// is appended to a per-source segment log before fan-out, deliveries
// carry log offsets, and subscribers may resume from a checkpointed
// offset. Startup recovers the log, truncating any torn tail left by a
// crash.
//
// With -role core/edge the server joins a federated deployment
// (DESIGN.md §15): cores own sources placed by consistent hashing over
// the -peers ring, edges hold subscriber sessions and open at most one
// upstream relay leg per (core, group), fanning local subscribers out
// from it. Clients use gasf.DialFederated with the same peer notation.
//
// The metrics listener serves the full observability surface:
// GET /metrics (strict Prometheus text exposition: session and shard
// counters, stage-duration histograms, delivery-latency summaries),
// GET /healthz (liveness), GET /readyz (readiness; 503 once a drain has
// begun), GET /debug/gasf (live JSON introspection of sessions, queue
// depths, resume offsets and latency quantiles) and the standard
// /debug/pprof handlers. Logs are structured (log/slog); -log-format
// selects text or json lines on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gasf/internal/core"
	"gasf/internal/federate"
	"gasf/internal/seglog"
	"gasf/internal/server"
	"gasf/internal/session"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gasf-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gasf-server", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":7070", "TCP listen address for sources and subscribers")
		metricsAddr = fs.String("metrics-addr", "", "HTTP listen address for /metrics, /healthz, /readyz and /debug (empty disables)")
		alg         = fs.String("alg", "RG", "group decision algorithm: RG or PS")
		cuts        = fs.Bool("cuts", false, "enable timely cuts")
		maxDelay    = fs.Duration("maxdelay", 0, "group time constraint for -cuts")
		shards      = fs.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
		shardQueue  = fs.Int("shard-queue", 0, "per-shard input queue depth (0 = default)")
		flushBatch  = fs.Int("flushbatch", 0, "released-transmission flush batch (0 = default)")
		queue       = fs.Int("queue", 256, "default per-subscriber send queue, in frames")
		policy      = fs.String("policy", "block", "slow-consumer policy: block, drop or degrade")
		heartbeat   = fs.Duration("heartbeat", 2*time.Second, "subscriber heartbeat / gap-scan interval")
		srcTimeout  = fs.Duration("source-timeout", 30*time.Second, "expire sources silent for this long (<0 disables)")
		scanEvery   = fs.Duration("scan-interval", 0, "flow-gap wheel granularity; expiry detected at most ~2 intervals late (0 = source-timeout/8, clamped to [10ms,1s])")
		gapWebhook  = fs.String("gap-webhook", "", "URL to POST a JSON deadman notification to when flow-gap expiry finishes a silent source (empty disables)")
		evictDrops  = fs.Int("evict-after-drops", 0, "evict a drop-policy subscriber after this many dropped deliveries (0 disables)")
		drainGrace  = fs.Duration("drain-grace", time.Second, "how long shutdown keeps draining connected publishers")
		quiet       = fs.Bool("quiet", false, "suppress per-session log lines (warnings and errors still print)")
		logFormat   = fs.String("log-format", "text", "structured log format on stderr: text or json")
		telSample   = fs.Int("telemetry-sample", 0, "stage-timing sampling period, rounded up to a power of two (0 = default, negative disables telemetry)")

		role  = fs.String("role", "single", "federation role: single, core or edge")
		self  = fs.String("self", "", "this node's name in the -peers core list (required for core/edge roles)")
		peers = fs.String("peers", "", `core placement ring as "name=addr,name=addr" (required for core/edge roles)`)

		dataDir       = fs.String("data-dir", "", "durable log directory (empty disables durability)")
		segmentBytes  = fs.Int64("segment-bytes", 0, "log segment rotation size in bytes (0 = 64MiB)")
		fsync         = fs.String("fsync", "interval", "log fsync policy: interval, never or always")
		fsyncInterval = fs.Duration("fsync-interval", 0, "background sync interval for -fsync interval (0 = 200ms)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := core.Options{Cuts: *cuts, MaxDelay: *maxDelay,
		ShardCount: *shards, QueueDepth: *shardQueue, FlushBatch: *flushBatch}
	switch *alg {
	case "RG", "rg":
		opts.Algorithm = core.RG
	case "PS", "ps":
		opts.Algorithm = core.PS
	default:
		return fmt.Errorf("unknown algorithm %q (want RG or PS)", *alg)
	}
	pol, err := session.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	fsyncPol, err := seglog.ParsePolicy(*fsync)
	if err != nil {
		return err
	}
	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	hopts := &slog.HandlerOptions{Level: level}
	var lg *slog.Logger
	switch *logFormat {
	case "text":
		lg = slog.New(slog.NewTextHandler(os.Stderr, hopts))
	case "json":
		lg = slog.New(slog.NewJSONHandler(os.Stderr, hopts))
	default:
		return fmt.Errorf("unknown log format %q (want text or json)", *logFormat)
	}

	var onGap func(source string, silentFor time.Duration)
	if *gapWebhook != "" {
		onGap = gapNotifier(*gapWebhook, lg)
	}

	fedRole, err := federate.ParseRole(*role)
	if err != nil {
		return err
	}
	var fedPeers []federate.Node
	if *peers != "" {
		if fedPeers, err = federate.ParsePeers(*peers); err != nil {
			return err
		}
	}

	srv, err := server.Start(server.Config{
		Addr: *addr,
		Federation: server.FederationConfig{
			Role:  fedRole,
			Self:  *self,
			Peers: fedPeers,
		},
		Engine:               opts,
		SubscriberQueue:      *queue,
		Policy:               pol,
		EvictAfterDrops:      *evictDrops,
		OnSourceGap:          onGap,
		HeartbeatInterval:    *heartbeat,
		SourceTimeout:        *srcTimeout,
		ScanInterval:         *scanEvery,
		DrainGrace:           *drainGrace,
		Logger:               lg,
		TelemetrySampleEvery: *telSample,
		DataDir:              *dataDir,
		Seglog: seglog.Options{
			SegmentBytes: *segmentBytes,
			Fsync:        fsyncPol,
			Interval:     *fsyncInterval,
		},
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		lg.Info("durable log open", "dir", *dataDir, "fsync", fsyncPol.String())
	}
	if fedRole != federate.RoleSingle {
		lg.Info("federation enabled", "role", fedRole.String(), "self", *self, "cores", *peers)
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: srv.MetricsHandler()}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				lg.Error("metrics listener failed", "err", err)
			}
		}()
		lg.Info("metrics listening", "url", fmt.Sprintf("http://%s/metrics", *metricsAddr))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	lg.Info("signal received, draining")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if metricsSrv != nil {
		defer metricsSrv.Shutdown(ctx)
	}
	return srv.Shutdown(ctx)
}

// gapNotifier returns an OnSourceGap hook POSTing a JSON deadman
// notification to url, with bounded retries — the operator's pager for
// a sensor that stopped reporting. The server invokes the hook off its
// expiry path, so a slow webhook never delays gap detection.
func gapNotifier(url string, lg *slog.Logger) func(source string, silentFor time.Duration) {
	client := &http.Client{Timeout: 5 * time.Second}
	return func(source string, silentFor time.Duration) {
		body := fmt.Sprintf(`{"event":"source_gap","source":%q,"silent_for_ms":%d}`,
			source, silentFor.Milliseconds())
		var err error
		for attempt, wait := 0, 250*time.Millisecond; attempt < 3; attempt, wait = attempt+1, wait*4 {
			if attempt > 0 {
				time.Sleep(wait)
			}
			var resp *http.Response
			resp, err = client.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 300 {
				return
			}
			err = fmt.Errorf("webhook status %s", resp.Status)
		}
		lg.Warn("gap webhook delivery failed", "source", source, "url", url, "err", err)
	}
}
