package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/core"
	"gasf/internal/federate"
	"gasf/internal/flowgap"
	"gasf/internal/intern"
	"gasf/internal/quality"
	"gasf/internal/seglog"
	"gasf/internal/session"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// Policy selects how the server treats a subscriber whose bounded send
// queue is full; see session.Policy.
type Policy = session.Policy

// The slow-consumer policies, re-exported for Config.Policy.
const (
	PolicyBlock   = session.Block
	PolicyDrop    = session.Drop
	PolicyDegrade = session.Degrade
)

// Config parameterizes a Server. The zero value listens on an ephemeral
// loopback port with default engine options.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Engine configures the group-aware engine deployed per source
	// (algorithm, cuts, output strategy) and the shard runtime knobs.
	Engine core.Options
	// SubscriberQueue bounds each subscriber's send queue, in release
	// cycles (one queued entry carries every frame a shard flush released
	// to that subscriber, itself bounded by the runtime's FlushBatch);
	// 0 means 256. A session may request its own depth in the hello,
	// clamped to MaxSubscriberQueue.
	SubscriberQueue int
	// MaxSubscriberQueue caps the per-session queue depth a subscriber
	// may request (memory protection); 0 means 65536.
	MaxSubscriberQueue int
	// Policy selects the slow-consumer policy (block, drop or degrade).
	Policy Policy
	// Degrade tunes the per-subscriber degrade controller used by
	// PolicyDegrade (watermarks, step, cooldown, restore hysteresis);
	// zero values take the adapt.Governor defaults. Ignored under other
	// policies.
	Degrade adapt.GovernorConfig
	// SubscriberSendBuffer, when positive, pins each subscriber
	// connection's kernel send buffer to roughly this many bytes (and
	// disables its autotuning). By default the kernel absorbs a large
	// backlog for a slow consumer before writes block, which delays the
	// slow-consumer policy — the delivery queue only backs up once TCP
	// backpressure reaches the write loop. A bounded buffer makes a
	// lagging consumer visible to the policy promptly, at the cost of
	// burst-absorption headroom. 0 keeps the OS default.
	SubscriberSendBuffer int
	// EvictAfterDrops, under PolicyDrop, evicts a subscriber once this
	// many of its deliveries have been dropped: the session ends with a
	// typed eviction notice (an error frame the client surfaces as
	// ErrEvicted) instead of thinning silently forever. 0 disables
	// drop-count eviction.
	EvictAfterDrops int
	// OnSourceGap, when set, is invoked once per flow-gap expiry — a
	// source closed because it went silent past SourceTimeout — with the
	// source name and how long it had been silent. It runs on its own
	// goroutine (the scan loop never waits on it), so it may block, e.g.
	// on a webhook POST. Invocations are counted in
	// gasf_gap_notifications_total.
	OnSourceGap func(source string, silentFor time.Duration)
	// HeartbeatInterval paces server->subscriber heartbeats and the
	// stalled-source scan; 0 means 2s.
	HeartbeatInterval time.Duration
	// SourceTimeout expires a source session that has sent nothing (not
	// even a heartbeat) for this long — the flow-gap detector. 0 means
	// 30s; negative disables expiry.
	SourceTimeout time.Duration
	// ScanInterval is the granularity of the flow-gap wheel: both the
	// cadence of its advance loop and the tick its liveness timestamps
	// are quantized to. Detection is therefore late by at most two
	// intervals past SourceTimeout, never early. 0 derives a default
	// from SourceTimeout (one eighth, clamped between 10ms and 1s);
	// ignored when SourceTimeout is negative.
	ScanInterval time.Duration
	// WriteTimeout bounds one frame write to a subscriber; a subscriber
	// that cannot absorb a frame within it is disconnected. 0 means 10s.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for a connection's hello frame;
	// 0 means 5s.
	HandshakeTimeout time.Duration
	// DrainGrace bounds how long a graceful Shutdown keeps reading from
	// connected publishers (draining tuples already in flight) before
	// cutting them; 0 means 1s.
	DrainGrace time.Duration
	// DataDir, when set, enables durability: every transmission released
	// to at least one live subscriber is appended to a per-source
	// segment log under this directory (internal/seglog) before fan-out,
	// deliveries carry their log offset, and subscribers may resume from
	// a checkpointed offset. Startup recovers the log, truncating any
	// torn tail left by a crash. Empty disables durability.
	DataDir string
	// Seglog tunes the segment log (rotation size, fsync policy); zero
	// values take the seglog defaults. Ignored unless DataDir is set.
	Seglog seglog.Options
	// TelemetrySampleEvery sets the stage-timing sampling period: one in
	// every N hot-path events per stage is timed against the monotonic
	// clock (rounded up to a power of two). 0 means
	// telemetry.DefaultSampleEvery; negative disables stage timing and
	// latency estimation entirely.
	TelemetrySampleEvery int
	// Logger, when set, receives structured session logs. When nil, a
	// non-nil Logf is bridged (one formatted line per event); when both
	// are nil, logging is discarded.
	Logger *slog.Logger
	// Logf, when set and Logger is nil, receives one line per session
	// event. Kept for printf-style sinks such as testing.T.Logf.
	Logf func(format string, args ...any)
	// Federation places the server in a multi-broker topology (core or
	// edge role, peer list). The zero value is the standalone broker.
	Federation FederationConfig
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.SourceTimeout == 0 {
		c.SourceTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = time.Second
	}
	return c
}

// session maps the transport's configuration onto the core's: the shared
// subset verbatim, and this transport's fixed choices for the rest — no
// block timeout (the writer's WriteTimeout ends a stuck session), labels
// rewritten in place (frames carry them encoded, nothing aliases the
// slice) and drained engines (a release is on the wire or in the log; the
// server reads counters, never an engine's history).
func (c Config) session(onExpire func(owner any, lag time.Duration)) session.Config {
	return session.Config{
		Engine:               c.Engine,
		SubscriberQueue:      c.SubscriberQueue,
		MaxSubscriberQueue:   c.MaxSubscriberQueue,
		Policy:               c.Policy,
		EvictAfterDrops:      c.EvictAfterDrops,
		Degrade:              c.Degrade,
		SourceTimeout:        c.SourceTimeout,
		ScanInterval:         c.ScanInterval,
		OnExpire:             onExpire,
		DataDir:              c.DataDir,
		Seglog:               c.Seglog,
		TelemetrySampleEvery: c.TelemetrySampleEvery,
	}
}

// errDraining rejects sessions arriving during shutdown.
var errDraining = errors.New("server is draining")

// sourceSession is one connected publisher: the core's half (name —
// interned, so reconnect generations share one heap copy — schema,
// flow-gap entry, fan-out view, group latency pair) plus the connection.
// Sessions are pooled: at million-source scale the churn of
// connect/expire cycles would otherwise allocate a session and its
// fan-out caches per reconnect.
type sourceSession struct {
	session.Source[*frameBatch]
	conn net.Conn
	// expired marks that the gap detector closed the connection, so the
	// reader attributes its exit correctly.
	expired atomic.Bool
	// frameSize is the size of the last output frame the sink encoded for
	// this source, the starting buffer of a frame fresh from the
	// allocator. Written by the source's shard worker only.
	frameSize int
}

var sourceSessionPool = sync.Pool{New: func() any { return new(sourceSession) }}

// newSourceSession checks a recycled session out of the pool; the core's
// OpenSource resets its half.
func newSourceSession(name string, conn net.Conn, schema *tuple.Schema) *sourceSession {
	src := sourceSessionPool.Get().(*sourceSession)
	src.Name, src.Schema, src.Owner, src.conn = name, schema, src, conn
	src.expired.Store(false)
	return src
}

// Server is the networked streaming service: the TCP adapter over the
// session core. Create with Start, stop with Shutdown (graceful drain) or
// Close (abort).
type Server struct {
	cfg  Config
	ln   net.Listener
	core *session.Core[*frameBatch]
	// tel caches core.Telemetry() for the per-tuple and per-write paths
	// (nil when disabled).
	tel *telemetry.Pipeline
	lg  *slog.Logger

	// draining is set when Shutdown begins: new sessions are turned away
	// and stream ends are tagged as drain goodbyes. mu orders a source
	// reader's srcWG.Add before Shutdown's Wait.
	mu       sync.RWMutex
	draining bool

	srcWG  sync.WaitGroup // source session readers
	connWG sync.WaitGroup // every session goroutine

	// Tier 2 of the flow-gap detector (tier 1, the wheel over connected
	// sessions, is the core's): sketch is the bounded-memory last-heard
	// record over the whole source population, connected or not, used to
	// label reconnects that follow a silence gap. names interns source
	// names across session generations, and expiryLag tracks how far past
	// their deadline expiries fire. Both nil when expiry is disabled.
	sketch    *flowgap.Sketch
	names     *intern.Pool
	expiryLag *telemetry.LatencyPair

	// Federation state: topo is the core placement ring (nil on a
	// standalone node), swapped under fedMu by UpdatePeers; fed is the
	// edge's upstream-leg registry (nil unless RoleEdge).
	fedMu sync.RWMutex
	topo  *federate.Topology
	fed   *relayMgr

	ctr      counters
	shutOnce sync.Once
	shutErr  error
}

// Start listens and serves until Shutdown or Close.
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var topo *federate.Topology
	switch cfg.Federation.Role {
	case federate.RoleEdge:
		if cfg.Federation.Self == "" {
			return nil, fmt.Errorf("server: edge role needs Federation.Self (the node's name)")
		}
		if len(cfg.Federation.Peers) == 0 {
			return nil, fmt.Errorf("server: edge role needs Federation.Peers (the core tier)")
		}
		if cfg.DataDir != "" {
			// Durability lives at the cores, which own the sources and
			// their logs; an edge log would hold nothing.
			return nil, fmt.Errorf("server: edge role does not take a data dir (cores own the durable logs)")
		}
		t, err := federate.NewTopology(cfg.Federation.Peers)
		if err != nil {
			return nil, err
		}
		topo = t
	case federate.RoleCore:
		if len(cfg.Federation.Peers) > 0 {
			t, err := federate.NewTopology(cfg.Federation.Peers)
			if err != nil {
				return nil, err
			}
			topo = t
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		lg:    cfg.resolveLogger(),
		names: intern.New(0),
		topo:  topo,
	}
	// Opening the core recovers the durable log (torn tails truncated,
	// each source's next offset restored) before any session connects.
	s.core, err = session.New[*frameBatch](cfg.session(s.expireSource), s.sink)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.tel = s.core.Telemetry()
	if cfg.Federation.Role == federate.RoleEdge {
		s.fed = newRelayMgr(s)
	}
	if s.core.Wheel() != nil {
		s.sketch = flowgap.NewSketch(gapSketchCells)
		s.expiryLag = telemetry.NewLatencyPair()
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	s.lg.Info("listening",
		"addr", ln.Addr().String(),
		"policy", cfg.Policy.String(),
		"heartbeat", cfg.HeartbeatInterval,
		"source_timeout", cfg.SourceTimeout,
		"scan_interval", s.core.Config().ScanInterval,
		"telemetry_sample", s.tel.SampleEvery())
	return s, nil
}

// Telemetry exposes the stage-timing pipeline (nil when disabled).
func (s *Server) Telemetry() *telemetry.Pipeline { return s.tel }

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Runtime exposes the shard runtime for metrics.
func (s *Server) Runtime() *shard.Runtime { return s.core.Runtime() }

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// gapSketchCells sizes the tier-2 silence sketch: 2^18 cells x 8 bytes
// = 2MiB fixed, ~40% occupancy at a 100k-name population (see the
// flowgap property test for the occupancy/error trade-off) and never
// growing past it — larger populations degrade detection gracefully
// via oldest-first eviction rather than growing memory.
const gapSketchCells = 1 << 18

// expireSource is told by the core's flow-gap wheel of a publisher that
// neither streamed nor heartbeat within SourceTimeout (it runs on the
// advance loop, outside every lock). Closing the connection unblocks the
// session reader, which finishes the stream, so the source's subscribers
// see a clean end instead of silence.
func (s *Server) expireSource(owner any, lag time.Duration) {
	src := owner.(*sourceSession)
	src.expired.Store(true)
	s.expiryLag.Observe(lag)
	s.lg.Warn("source expired", "source", src.Name, "silent_for", s.cfg.SourceTimeout, "lag", lag)
	if s.cfg.OnSourceGap != nil {
		// Deadman notification, off the advance loop: the hook may block on
		// external delivery (webhook, pager) without stalling detection.
		s.ctr.gapNotifications.Add(1)
		go s.cfg.OnSourceGap(src.Name, s.cfg.SourceTimeout+lag)
	}
	src.conn.Close()
}

// handleConn performs the handshake and dispatches the session.
func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	kind, payload, err := ReadFrame(conn)
	if err != nil {
		s.reject(conn, fmt.Errorf("reading hello: %w", err))
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch kind {
	case FrameSourceHello:
		s.serveSource(conn, payload)
	case FrameSubHello:
		s.serveSubscriber(conn, payload)
	default:
		s.reject(conn, fmt.Errorf("connection opened with frame kind %d, want a hello", kind))
	}
}

// reject answers a failed handshake with an error frame and closes.
func (s *Server) reject(conn net.Conn, err error) {
	if errors.Is(err, session.ErrClosed) {
		err = errDraining
	}
	s.ctr.handshakeRejects.Add(1)
	s.lg.Warn("handshake rejected", "remote", conn.RemoteAddr().String(), "err", err)
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_ = WriteFrame(conn, FrameError, []byte(err.Error()))
	conn.Close()
}

// serveSource runs a publisher session: open the source on the core,
// stream its tuples into the shard runtime, and on any exit (goodbye,
// disconnect, expiry, protocol error) finish the stream — flushing the
// tail to its subscribers and ending their streams.
func (s *Server) serveSource(conn net.Conn, hello []byte) {
	name, schema, err := DecodeSourceHello(hello)
	if err != nil {
		s.reject(conn, err)
		return
	}
	// Interning shares one heap copy of the name across reconnect
	// generations and with the long-lived registries keyed by it.
	name = s.names.Intern(name)

	if s.fed != nil {
		// Edges hold no sources; point the publisher at the owner.
		if owner, ok := s.ownerOf(name); ok {
			s.reject(conn, fmt.Errorf("edge node: source %q is owned by core %q at %s", name, owner.Name, owner.Addr))
		} else {
			s.reject(conn, fmt.Errorf("edge node: publishers connect to a core, not an edge"))
		}
		return
	}
	if self := s.cfg.Federation.Self; self != "" && s.cfg.Federation.Role == federate.RoleCore {
		// Placement enforcement: a core with a configured topology only
		// accepts the sources the ring assigns to it, so a misrouted
		// publisher learns the owner instead of silently splitting a
		// source across cores.
		if owner, ok := s.ownerOf(name); ok && owner.Name != self {
			s.reject(conn, fmt.Errorf("source %q is owned by core %q at %s (this is %q)", name, owner.Name, owner.Addr, self))
			return
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(conn, errDraining)
		return
	}
	s.srcWG.Add(1)
	s.mu.Unlock()
	src := newSourceSession(name, conn, schema)
	if err := s.core.OpenSource(&src.Source); err != nil {
		s.srcWG.Done()
		s.reject(conn, err)
		return
	}
	if w := s.core.Wheel(); w != nil {
		// Tier 2: was this name silent past the timeout since we last
		// heard it (possibly sessions ago)? That is a gap-recovered
		// reconnect — the sketch remembers populations far larger than
		// the connected set, in bounded memory.
		now := w.NowTick()
		if last, known := s.sketch.LastSeen(name); known && now-last >= w.TimeoutTicks() {
			s.ctr.gapReconnects.Add(1)
			s.lg.Info("source returned after flow gap", "source", name,
				"silent_for", time.Duration(now-last)*w.Tick())
		}
		s.sketch.Record(name, now)
	}
	s.ctr.sourcesAccepted.Add(1)
	s.lg.Info("source connected", "source", name, "remote", conn.RemoteAddr().String(), "schema", schema)
	if err := WriteFrame(conn, FrameHelloOK, s.sourceResumeHint(name, schema)); err != nil {
		s.finishSource(src, fmt.Errorf("hello-ok: %w", err))
		return
	}
	s.readSource(src)
}

// resumeHintTail bounds how many log-tail records the source hello-ok
// hint scans for the highest logged tuple sequence. Reconnecting
// publishers keep unacked windows far larger than this, but every tuple
// past the last Sync barrier that actually reached the log lands in the
// tail the publisher republishes next — so the maximum over a bounded
// tail is the maximum that matters.
const resumeHintTail = 32

// sourceResumeHint builds the source hello-ok payload: on a durable
// server it names the highest tuple sequence found near the log head for
// this source, so a reconnecting publisher can trim its republish window
// to the tuples the log never saw instead of double-logging the overlap.
// Best-effort: when the tail does not decode under this session's schema
// (the source came back shaped differently), no hint is sent — a wrong
// hint could silently drop tuples, a missing one only risks duplicates.
func (s *Server) sourceResumeHint(name string, schema *tuple.Schema) []byte {
	log := s.core.Log()
	if log == nil {
		return nil
	}
	head := log.NextOffset(name)
	from := uint64(0)
	if head > resumeHintTail {
		from = head - resumeHintTail
	}
	maxSeq := int64(-1)
	err := log.Read(name, from, head, func(_ uint64, payload []byte) error {
		t, _, _, err := wire.DecodeTransmission(schema, payload)
		if err != nil {
			return err
		}
		if int64(t.Seq) > maxSeq {
			maxSeq = int64(t.Seq)
		}
		return nil
	})
	if err != nil && head > 0 {
		return nil
	}
	return EncodeSourceHelloOK(maxSeq, true)
}

// Ingest read-buffer sizing: every session starts on a small buffer —
// at scale most sources are idle heartbeaters, and a 32KiB buffer per
// idle session is the difference between ~3GiB and ~50MiB at 100k
// sources — and upgrades to the streaming size on its first tuple
// frame, when it has proven it is a streamer.
const (
	idleReadBuf   = 512
	streamReadBuf = 32 << 10
)

// ingestSlab is how many tuples readSource decodes into one slab: the
// tuple headers and their values are allocated a slab at a time, two
// allocations per ingestSlab tuples instead of two per tuple. A tuple
// keeps its whole slab reachable, which is harmless because nothing
// downstream holds a tuple past its region — drained engines keep no
// history — and is why a slab is small. ingestSlabValues caps a slab's
// value array for wide schemas.
const (
	ingestSlab       = 64
	ingestSlabValues = 4096
)

// tupleSlab hands out tuples of one schema from slabs; see ingestSlab.
type tupleSlab struct {
	width  int
	tuples []tuple.Tuple
	values []float64
}

// next returns a fresh tuple whose Values has room for exactly one
// schema-width row and nothing beyond it, which is what makes
// wire.DecodeTupleInto fill it in place.
func (sl *tupleSlab) next() *tuple.Tuple {
	if len(sl.tuples) == 0 {
		n := max(1, min(ingestSlab, ingestSlabValues/sl.width))
		sl.tuples, sl.values = make([]tuple.Tuple, n), make([]float64, n*sl.width)
	}
	t := &sl.tuples[0]
	t.Values = sl.values[:sl.width:sl.width]
	sl.tuples, sl.values = sl.tuples[1:], sl.values[sl.width:]
	return t
}

// flushBatch is the runtime's release batch size, which also bounds an
// ingest run, a relay run and the capacity a fresh frame batch is born
// with.
func (s *Server) flushBatch() int {
	if n := s.cfg.Engine.FlushBatch; n > 0 {
		return n
	}
	return shard.DefaultFlushBatch
}

// frameBuffered reports whether a whole frame — header and payload — is
// already sitting in br's buffer: the run guard of the ingest and relay
// read loops. A buffered header alone is not enough: continuing to
// accumulate would park staged work behind a blocking read for a
// payload that may lag arbitrarily. The Buffered() guard must come
// first — bufio's Peek otherwise BLOCKS reading the connection for the
// missing header bytes, which would hold the staged run across an idle
// gap and cost a full pacing interval of delivery latency.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < frameHeaderLen {
		return false
	}
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	return uint32(br.Buffered()-frameHeaderLen) >= n
}

// readSource is the publisher read loop. Reads are buffered, the payload
// buffer is recycled across frames and tuples are decoded into slabs
// (ingestSlab), so steady-state ingest allocates per slab, not per frame.
// Ingest is opportunistically batched: tuples whose frames are already sitting in
// the read buffer are submitted to the shard ring together, one
// synchronization per run, while a lone tuple still submits immediately —
// batching never waits for bytes that have not arrived.
func (s *Server) readSource(src *sourceSession) {
	var lastTS time.Time
	var readErr error
	wheel, rt := s.core.Wheel(), s.core.Runtime()
	br := bufio.NewReaderSize(src.conn, idleReadBuf)
	upgraded := false
	var payloadBuf []byte
	flushN := s.flushBatch()
	batch := make([]*tuple.Tuple, 0, flushN)
	slab := tupleSlab{width: src.Schema.Len()}
	submit := func() error {
		if len(batch) == 0 {
			return nil
		}
		// Stamping liveness once per submitted run (not per frame) keeps
		// even the wheel's one-atomic-store touch off the per-tuple
		// path; runs are far shorter than any sane SourceTimeout.
		wheel.Touch(&src.Gap)
		// The submit may park arbitrarily long on a full shard ring
		// (block policy downstream); the busy flag keeps the flow-gap
		// wheel from mistaking that stall for a dead publisher, and the
		// fresh touch on return restarts the gap clock.
		src.Gap.SetBusy(true)
		err := rt.SubmitBatch(src.Name, batch)
		src.Gap.SetBusy(false)
		wheel.Touch(&src.Gap)
		if err == nil {
			s.ctr.tuplesIn.Add(uint64(len(batch)))
		}
		batch = batch[:0]
		return err
	}
	for {
		kind, payload, err := ReadFrameInto(br, payloadBuf)
		payloadBuf = payload[:cap(payload)]
		if err != nil {
			// EOF, gap expiry and the drain deadline are orderly ends of
			// stream, not failures.
			if !errors.Is(err, io.EOF) && !src.expired.Load() && !s.isDraining() {
				readErr = err
			}
			break
		}
		s.ctr.bytesIn.Add(uint64(frameHeaderLen + len(payload)))
		switch kind {
		case FrameTuple:
			if !upgraded {
				// First tuple: this session is a streamer, not an idle
				// heartbeater — move it to the full-size read buffer.
				// Bytes already buffered (frames behind this one) are
				// spliced ahead of the connection so nothing is lost.
				upgraded = true
				if n := br.Buffered(); n > 0 {
					pending, _ := br.Peek(n)
					br = bufio.NewReaderSize(
						io.MultiReader(bytes.NewReader(append([]byte(nil), pending...)), src.conn),
						streamReadBuf)
				} else {
					br = bufio.NewReaderSize(src.conn, streamReadBuf)
				}
			}
			t := slab.next()
			var n int
			var err error
			if s.tel.Sample(telemetry.StageIngestDecode) {
				t0 := time.Now()
				n, err = wire.DecodeTupleInto(t, src.Schema, payload)
				s.tel.Observe(telemetry.StageIngestDecode, time.Since(t0))
			} else {
				n, err = wire.DecodeTupleInto(t, src.Schema, payload)
			}
			if err == nil && n != len(payload) {
				err = fmt.Errorf("tuple frame carries %d trailing bytes", len(payload)-n)
			}
			if err == nil && !t.TS.After(lastTS) {
				err = fmt.Errorf("tuple %d timestamp %v not after previous %v", t.Seq, t.TS, lastTS)
			}
			if err != nil {
				readErr = err
				s.sendError(src.conn, err)
				break
			}
			lastTS = t.TS
			batch = append(batch, t)
			if len(batch) < flushN && frameBuffered(br) {
				// Another whole frame is already buffered: keep
				// accumulating.
				continue
			}
			if err := submit(); err != nil {
				readErr = err
				break
			}
			continue
		case FrameHeartbeat:
			wheel.Touch(&src.Gap)
			s.ctr.heartbeatsIn.Add(1)
			continue
		case FramePing:
			// Publish barrier: everything read before the ping goes to the
			// shard ring before the pong leaves, so a client that has seen
			// the pong knows later membership changes order after those
			// tuples.
			wheel.Touch(&src.Gap)
			if err := submit(); err != nil {
				readErr = err
				break
			}
			// The pong write closes the barrier; it is covered by the busy
			// flag like the submit so an outstanding ping can never expire
			// the source mid-barrier.
			src.Gap.SetBusy(true)
			src.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			err := WriteFrame(src.conn, FramePong, payload)
			src.Gap.SetBusy(false)
			wheel.Touch(&src.Gap)
			if err != nil {
				readErr = fmt.Errorf("answering ping: %w", err)
				break
			}
			continue
		case FrameGoodbye:
		default:
			readErr = fmt.Errorf("unexpected frame kind %d from source", kind)
			s.sendError(src.conn, readErr)
		}
		break
	}
	// Submit the staged tail (tuples validated before the exit) ahead of
	// the finish marker, so a goodbye or disconnect never drops them.
	if err := submit(); err != nil && readErr == nil {
		readErr = err
	}
	s.finishSource(src, readErr)
}

// sendError best-effort ships a fatal error to the peer.
func (s *Server) sendError(conn net.Conn, err error) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_ = WriteFrame(conn, FrameError, []byte(err.Error()))
}

// finishSource ends a publisher session: the core finishes the engine
// (flushing its final outputs through the sink), frees the source name
// and ends the subscribers' streams once the tail is delivered.
func (s *Server) finishSource(src *sourceSession, cause error) {
	defer s.srcWG.Done()
	src.conn.Close()
	if w := s.core.Wheel(); w != nil {
		// Tier-2 record of when this name was last heard, so a future
		// reconnect can be classified against the silence threshold.
		s.sketch.Record(src.Name, w.NowTick())
	}
	draining := s.isDraining()
	switch {
	case src.expired.Load():
		s.ctr.closedFlowGap.Add(1)
	case draining:
		s.ctr.closedDrain.Add(1)
	case cause != nil:
		s.ctr.closedDisconnect.Add(1)
	default:
		s.ctr.closedFinished.Add(1)
	}
	if cause != nil {
		s.ctr.sourcesFailed.Add(1)
		s.lg.Warn("source failed", "source", src.Name, "err", cause)
	} else {
		s.lg.Info("source finished", "source", src.Name)
	}
	clean, err := s.core.FinishSource(&src.Source, true)
	if err != nil && !draining {
		s.lg.Warn("finishing source", "source", src.Name, "err", err)
	}
	s.ctr.sourcesFinished.Add(1)
	// Safe to recycle: the session is out of every registry, the runtime
	// has drained its flushes, and the wheel reported no in-flight expiry
	// claim (clean=false: the GC takes that rare loser). Not once a
	// shutdown began: its snapshot of the open sources may still name this
	// one.
	if clean && !s.isDraining() {
		sourceSessionPool.Put(src)
	}
}

// serveSubscriber runs a subscriber session: parse the quality spec, join
// the source's live group through the core, then stream transmissions
// until the subscriber leaves or its source finishes.
func (s *Server) serveSubscriber(conn net.Conn, hello []byte) {
	h, err := DecodeSubHello(hello)
	if err != nil {
		s.reject(conn, err)
		return
	}
	spec, err := quality.Parse(h.Spec)
	if err != nil {
		s.reject(conn, err)
		return
	}
	if s.isDraining() {
		s.reject(conn, errDraining)
		return
	}
	if s.cfg.SubscriberSendBuffer > 0 {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(s.cfg.SubscriberSendBuffer)
		}
	}
	sub := newSubscriber(s, h.App, h.Source, conn, h.Queue)
	if s.fed != nil {
		s.serveEdgeSubscriber(sub, h, spec)
		return
	}
	sub.m.Resume, sub.m.ResumeFrom = h.Resume, h.ResumeFrom
	// An edge's upstream leg is the same session in every way, but tagged
	// with the edge it fans out on for metrics and debug.
	sub.relayEdge = h.RelayEdge
	if err := s.core.Join(context.Background(), sub.m, spec); err != nil {
		s.reject(conn, err)
		return
	}
	if h.RelayEdge != "" {
		s.ctr.fedRelayLegsIn.Add(1)
	}
	schemaPayload, err := EncodeSchema(sub.m.Schema)
	if err == nil {
		err = WriteFrame(conn, FrameHelloOK, schemaPayload)
	}
	if err != nil {
		s.removeSubscriber(sub)
		// No writer will run: what the fan-out queued since the join
		// goes back to the free list here.
		drainQueued(sub.m)
		conn.Close()
		return
	}
	s.ctr.subscribersAccepted.Add(1)
	s.lg.Info("subscriber joined", "app", h.App, "source", h.Source, "spec", spec)
	s.connWG.Add(1)
	go sub.writeLoop()
	sub.readLoop() // returns when the client leaves or the session ends
}

// removeSubscriber detaches a departing subscriber and returns once the
// departure has been applied: its queue stops accepting deliveries and
// its filter has left the live group (session.Core.Leave). A relay member
// lives outside the engine and the registry: its departure refcounts the
// leg down, and the last member's leave tears the upstream subscription
// down through the acked path.
func (s *Server) removeSubscriber(sub *subscriber) {
	err := s.core.Leave(context.Background(), sub.m)
	if sub.leg != nil {
		s.fed.detach(sub)
	} else if err != nil {
		s.lg.Warn("detaching subscriber", "app", sub.m.App, "source", sub.m.Source, "err", err)
	}
	s.lg.Info("subscriber left", "app", sub.m.App, "source", sub.m.Source, "dropped", sub.m.Dropped())
}

// sinkScratch is the per-sink-call staging state: the subscribers
// touched this cycle and the frames and batches taken off the free lists
// for it. Scratches are recycled through a free list of their own, so
// concurrent shard workers each take one and the fan-out cycle stays
// allocation-free.
type sinkScratch struct {
	touched []*session.Member[*frameBatch]
	frames  frameStash
	batches []*frameBatch
}

var freeScratch = freeList[*sinkScratch]{max: maxFreeScratch}

// sink receives batched released transmissions from the shard workers and
// fans each out to the connected subscribers named in its destination
// list. Per-source calls are serialized by the owning worker, so each
// subscriber's stream arrives in release order.
//
// The fan-out path encodes each transmission exactly once into a
// recycled, refcounted frame shared by every target queue, labels it
// with the live targets only (departed subscribers stop consuming egress
// bytes; the core's Route caches targets, labels and the encoded label
// prefix while the membership epoch and destination list repeat). Frames
// are staged per subscriber across the whole flush and handed over as
// one batch per subscriber — one queue operation per release cycle, not
// one per frame. The cycle's frames and batches come off the free lists
// in runs, one lock each. Staging is safe without locks because a
// subscriber belongs to exactly one source and one worker owns all of a
// source's flushes.
func (s *Server) sink(batch []shard.Out) {
	var fanStart time.Time
	if s.tel.Sample(telemetry.StageFanout) {
		fanStart = time.Now()
	}
	durable := s.core.Log() != nil
	sc, ok := freeScratch.pop()
	if !ok {
		sc = new(sinkScratch)
	}
	for i := range batch {
		o := &batch[i]
		s.ctr.transmissionsOut.Add(1)
		src := s.core.Route(o.Source, o.Tr.Destinations)
		if src == nil || len(src.Targets) == 0 {
			continue // the source is gone, or every addressee already left
		}
		owner := src.Owner.(*sourceSession)
		fr := sc.frames.get(len(batch)-i, owner.frameSize)
		// The offset stays 0 unless the log append below assigns one.
		buf := append(beginFrame(fr.buf, FrameTransmission), 0, 0, 0, 0, 0, 0, 0, 0)
		buf, err := src.Enc.AppendTransmission(buf, src.Epoch, o.Tr.Tuple, src.Labels)
		if err != nil {
			fr.buf = fr.buf[:0]
			fr.retain(1)
			fr.release()
			s.lg.Error("encoding transmission", "source", o.Source, "err", err)
			continue
		}
		fr.buf = endFrame(buf)
		owner.frameSize = len(fr.buf)
		if durable {
			// The durable record is the exact transmission fanned out to
			// the live targets, appended before any queue sees the frame.
			off, err := s.core.AppendLog(o.Source, fr.buf[frameHeaderLen+8:])
			if err != nil {
				// Recovery truncates whatever half-record the error left.
				s.lg.Error("segment log append", "source", o.Source, "err", err)
			}
			binary.LittleEndian.PutUint64(fr.buf[frameHeaderLen:], off)
		}
		// The tuple's source timestamp rides on the frame so egress can
		// turn the write instant into an end-to-end delivery latency.
		fr.ts = o.Tr.Tuple.TS.UnixNano()
		fr.retain(len(src.Targets))
		for j, m := range src.Targets {
			if m.Stage == nil {
				if len(sc.batches) == 0 {
					// Enough for every target still unstaged, in one take.
					sc.batches = takeBatches(sc.batches, len(src.Targets)-j, s.flushBatch())
				}
				m.Stage = sc.batches[len(sc.batches)-1]
				sc.batches[len(sc.batches)-1] = nil
				sc.batches = sc.batches[:len(sc.batches)-1]
				sc.touched = append(sc.touched, m)
			}
			m.Stage.frames = append(m.Stage.frames, fr)
		}
	}
	// Hand each touched subscriber its whole cycle in one queue
	// operation; the stage pointer is cleared before the send so a
	// blocked hand-off never leaves worker-owned state behind.
	for i, m := range sc.touched {
		b := m.Stage
		m.Stage = nil
		sc.touched[i] = nil
		s.sendBatch(m, b)
	}
	sc.touched = sc.touched[:0]
	sc.frames.drop()
	putBatches(sc.batches)
	sc.batches = sc.batches[:0]
	freeScratch.push(sc)
	if !fanStart.IsZero() {
		s.tel.Observe(telemetry.StageFanout, time.Since(fanStart))
	}
}

// Shutdown gracefully drains the server: stop accepting, close publisher
// sessions, flush every engine and subscriber queue, then close the
// subscriber sessions with a goodbye. The context bounds the drain; on
// expiry the remaining work is aborted.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() { s.shutErr = s.shutdown(ctx) })
	return s.shutErr
}

// Close aborts the server without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
}

func (s *Server) shutdown(ctx context.Context) error {
	s.lg.Info("shutting down")
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.ln.Close()
	if s.fed != nil {
		// Tear down the upstream legs first: every local member's stream
		// then finishes with the drain-tagged goodbye, and the cores
		// clean their relay sessions on disconnect.
		s.fed.shutdown()
	}
	aborted := false
	err := s.core.Close(ctx, func(open []*session.Source[*frameBatch]) error {
		// Each publisher gets a drain-tagged goodbye and a read deadline:
		// its reader drains the tuples already in flight, then goes down
		// the normal finish path — engine Finish, tail flush, subscriber
		// goodbye. The tag lets a reconnect-aware publisher distinguish
		// this forced end from its own Finish and redial a restarted
		// server.
		for _, o := range open {
			conn := o.Owner.(*sourceSession).conn
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			_ = WriteFrame(conn, FrameGoodbye, goodbyeDrainPayload)
			conn.SetReadDeadline(time.Now().Add(s.cfg.DrainGrace))
		}
		s.srcWG.Wait()
		return nil
	}, func() {
		// Hard abort: cut the connections under the readers.
		aborted = true
		s.core.Inspect(func(src *session.Source[*frameBatch], _ map[string]*session.Member[*frameBatch]) {
			src.Owner.(*sourceSession).conn.Close()
		})
	})
	// Every stream has ended; the writers flush their queues, say goodbye
	// and close, which releases the read sides.
	waitDone := make(chan struct{})
	go func() { s.connWG.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-ctx.Done():
		if !aborted {
			err = errors.Join(err, ctx.Err())
		}
	}
	if err == nil && !aborted {
		s.lg.Info("drained")
	}
	return err
}
