package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/session"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// deadlineWatch interrupts a connection's blocking operations when a
// context is cancelled: context.AfterFunc arms an immediate deadline
// through set (the connection's read, write or combined deadline).
type deadlineWatch struct {
	done <-chan struct{}
	set  func(time.Time) error
	// stop unregisters the watcher and reports whether it did so before
	// the watcher ran; fired is closed by the watcher once its deadline
	// write has landed.
	stop  func() bool
	fired chan struct{}
}

// watchDeadline arms a watcher for a cancellable ctx.
func watchDeadline(ctx context.Context, set func(time.Time) error) *deadlineWatch {
	w := &deadlineWatch{done: ctx.Done(), set: set, fired: make(chan struct{})}
	w.stop = context.AfterFunc(ctx, func() {
		set(time.Unix(1, 0))
		close(w.fired)
	})
	return w
}

// retire unregisters the watcher and reports whether it had fired. A
// watcher that has started (perhaps after the operation finished) is
// waited for, so that its deadline write lands before the deadline is
// cleared: cleared first, the write would poison every later operation on
// the session.
func (w *deadlineWatch) retire() (fired bool) {
	if w.stop() {
		return false
	}
	<-w.fired
	w.set(time.Time{})
	return true
}

// withConnCtx runs one blocking connection operation under a context: if
// ctx fires mid-operation the operation unblocks, and the context error is
// reported instead of the deadline error.
func withConnCtx(ctx context.Context, conn net.Conn, op func() error) error {
	var k keptWatch
	if err := k.arm(ctx, conn, false); err != nil {
		return err
	}
	if err := op(); err != nil {
		return k.failed(ctx, err)
	}
	k.disarm()
	return nil
}

// keptWatch bounds a session's calls by their contexts. A context that
// can never be cancelled needs nothing. A cancellable one needs a watcher
// on the connection's deadline, which costs a channel, a registration and
// a closure — so the watcher outlives the call that armed it and serves
// every later call whose context has the same Done channel: a caller
// looping on one cancellable context pays for it once.
type keptWatch struct {
	w atomic.Pointer[deadlineWatch]
}

// arm readies conn for one call bounded by ctx, on the read deadline only
// when readOnly, else on both. It reports ctx's error when ctx is already
// done. The calls armed on one keptWatch are serial; only an unregistering
// drop may run beside them.
func (k *keptWatch) arm(ctx context.Context, conn net.Conn, readOnly bool) error {
	done := ctx.Done()
	if w := k.w.Load(); w != nil {
		if w.done == done {
			select {
			case <-done:
				k.disarm()
				return ctx.Err()
			default:
				return nil
			}
		}
		k.disarm()
	}
	if done == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	set := conn.SetDeadline
	if readOnly {
		set = conn.SetReadDeadline
	}
	k.w.Store(watchDeadline(ctx, set))
	return nil
}

// disarm retires the armed watcher, if any, and reports whether it had
// fired.
func (k *keptWatch) disarm() (fired bool) {
	w := k.w.Swap(nil)
	return w != nil && w.retire()
}

// drop unregisters the armed watcher without touching the deadline, for a
// connection about to close while a call may still be running on it.
func (k *keptWatch) drop() {
	if w := k.w.Swap(nil); w != nil {
		w.stop()
	}
}

// failed settles a failed call: the watcher is retired (the session is
// ending, or the next call arms a fresh one), and when it was the watcher
// that interrupted the call the context's error is reported instead of the
// deadline error.
func (k *keptWatch) failed(ctx context.Context, err error) error {
	if k.disarm() {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}

// dialHello dials the server, sends one hello frame, and waits for the
// hello-ok (or error) answer, returning the ok payload. timeout bounds the
// dial plus handshake (0 means 5s); ctx ends either early.
func dialHello(ctx context.Context, addr string, kind byte, hello []byte, timeout time.Duration) (net.Conn, []byte, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("server: %w", err)
	}
	conn.SetDeadline(time.Now().Add(timeout))
	var (
		k       byte
		payload []byte
	)
	err = withConnCtx(ctx, conn, func() error {
		if err := WriteFrame(conn, kind, hello); err != nil {
			return fmt.Errorf("server: sending hello: %w", err)
		}
		var err error
		if k, payload, err = ReadFrame(conn); err != nil {
			return fmt.Errorf("server: reading hello answer: %w", err)
		}
		return nil
	})
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	switch k {
	case FrameHelloOK:
		conn.SetDeadline(time.Time{})
		return conn, payload, nil
	case FrameError:
		conn.Close()
		return nil, nil, rejectedError(payload)
	default:
		conn.Close()
		return nil, nil, fmt.Errorf("server: unexpected hello answer kind %d", k)
	}
}

// Publisher is a client-side source session: it streams tuples of one
// schema to the server under an advertised source name. Every call that
// blocks takes a context; the calls are serialized.
type Publisher struct {
	conn   net.Conn
	source string
	// Resume hint from the handshake: the highest tuple sequence the
	// server's durable log holds for this source (resumeOK false against
	// a non-durable or pre-durability server; resumeSeq -1 on a durable
	// server whose log holds nothing for the source).
	resumeSeq int64
	resumeOK  bool

	mu      sync.Mutex
	watch   keptWatch // armed under mu
	buf     []byte
	lastTS  time.Time
	pingSeq uint64
	closed  bool
}

// errPublisherClosed rejects calls on a closed publisher. It wraps
// net.ErrClosed: to a reconnecting caller, a session closed under it (by a
// redial that its context ended) is a lost connection like any other.
var errPublisherClosed = fmt.Errorf("server: publisher closed: %w", net.ErrClosed)

// DialPublisher opens a source session. timeout bounds the dial plus
// handshake (0 means 5s); ctx ends either early. The schema travels in the
// handshake; every published tuple must use it.
func DialPublisher(ctx context.Context, addr, source string, schema *tuple.Schema, timeout time.Duration) (*Publisher, error) {
	hello, err := EncodeSourceHello(source, schema)
	if err != nil {
		return nil, err
	}
	conn, ok, err := dialHello(ctx, addr, FrameSourceHello, hello, timeout)
	if err != nil {
		return nil, err
	}
	p := &Publisher{conn: conn, source: source}
	if seq, durable, err := DecodeSourceHelloOK(ok); err != nil {
		conn.Close()
		return nil, err
	} else if durable {
		p.resumeSeq, p.resumeOK = seq, true
	}
	return p, nil
}

// Source returns the advertised source name.
func (p *Publisher) Source() string { return p.source }

// ResumeHint returns the highest tuple sequence the server's durable
// log already held for this source at the handshake (-1 for none), and
// whether the server provided a hint at all (only durable servers do).
// A reconnecting publisher republishes only the tuples of its unacked
// window with sequences above the hint, keeping the durable stream
// duplicate-free across the reconnect.
func (p *Publisher) ResumeHint() (maxSeq int64, ok bool) { return p.resumeSeq, p.resumeOK }

// PublishBatch publishes a run of caller-timestamped tuples with a
// single write: the frames are encoded back to back into the recycled
// buffer and cross the network — and, server-side, the shard ring — as
// one burst. Timestamps must be strictly increasing — the group-aware
// engine's region algebra depends on it — across the batch and after the
// previous publish, and every tuple must use the advertised schema; a bad
// tuple leaves the session exactly as it was (all-or-nothing). It applies
// backpressure: it blocks while the server's shard queue for this source
// is full, until ctx ends. The slice is not retained.
func (p *Publisher) PublishBatch(ctx context.Context, tuples []*tuple.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errPublisherClosed
	}
	if err := p.watch.arm(ctx, p.conn, false); err != nil {
		return err
	}
	lastTS := p.lastTS
	buf := p.buf[:0]
	for _, t := range tuples {
		if t == nil {
			return fmt.Errorf("server: nil tuple in batch")
		}
		if !t.TS.After(lastTS) {
			return fmt.Errorf("server: tuple %d timestamp %v not after previous %v", t.Seq, t.TS, lastTS)
		}
		// Frames after the first do not start at buf[0], so the length
		// patch is frame-relative rather than via beginFrame/endFrame.
		start := len(buf)
		buf = append(buf, FrameTuple, 0, 0, 0, 0)
		var err error
		if buf, err = wire.AppendTuple(buf, t); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf[start+1:], uint32(len(buf)-start-frameHeaderLen))
		lastTS = t.TS
	}
	p.buf = buf
	if _, err := p.conn.Write(p.buf); err != nil {
		return p.watch.failed(ctx, fmt.Errorf("server: publishing: %w", err))
	}
	p.lastTS = lastTS
	return nil
}

// Sync is the publish barrier: it sends a ping and blocks until the
// server's pong, which the server only sends after submitting every
// previously published tuple to the shard runtime. When Sync returns,
// a membership change applied afterwards (a Subscribe or a subscriber
// departure) is ordered behind those tuples at the engine. It returns
// ErrServerDraining if the server is draining.
func (p *Publisher) Sync(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errPublisherClosed
	}
	if err := p.watch.arm(ctx, p.conn, false); err != nil {
		return err
	}
	p.pingSeq++
	var nonce [8]byte
	binary.LittleEndian.PutUint64(nonce[:], p.pingSeq)
	if err := WriteFrame(p.conn, FramePing, nonce[:]); err != nil {
		return p.watch.failed(ctx, fmt.Errorf("server: sending ping: %w", err))
	}
	for {
		kind, payload, err := ReadFrame(p.conn)
		if err != nil {
			return p.watch.failed(ctx, fmt.Errorf("server: awaiting pong: %w", err))
		}
		switch kind {
		case FramePong:
			if len(payload) == len(nonce) && [8]byte(payload) == nonce {
				return nil
			}
			// A stale pong from an earlier timed-out Sync; keep
			// waiting for ours.
		case FrameGoodbye:
			return goodbyeEnd(payload)
		case FrameError:
			return fmt.Errorf("server: remote error: %s", payload)
		default:
			return fmt.Errorf("server: unexpected frame kind %d awaiting pong", kind)
		}
	}
}

// Heartbeat tells the server the source is alive during a lull, resetting
// its flow-gap timer.
func (p *Publisher) Heartbeat(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errPublisherClosed
	}
	if err := p.watch.arm(ctx, p.conn, false); err != nil {
		return err
	}
	if err := WriteFrame(p.conn, FrameHeartbeat, nil); err != nil {
		return p.watch.failed(ctx, err)
	}
	return nil
}

// Close ends the stream gracefully: the server finishes the source's
// engine, flushes the tail to its subscribers, and retires the session.
func (p *Publisher) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	// A watcher a cancelled context fired would fail the goodbye.
	p.watch.disarm()
	_ = WriteFrame(p.conn, FrameGoodbye, nil)
	return p.conn.Close()
}

// Subscriber is a client-side application session: it joins a source's
// group with a quality spec and receives the filtered stream.
type Subscriber struct {
	conn   net.Conn
	rd     stampReader // under br
	br     *bufio.Reader
	buf    []byte
	schema *tuple.Schema
	app    string
	source string

	// RecvInto scratch: label views into the recycled payload buffer and
	// the session's interned label strings (destination sets repeat, so
	// steady-state receives allocate nothing; the interner's bounded
	// table keeps a long-lived session's memory flat even when the
	// destination labels churn without repeating). prefix is the last
	// transmission's encoded destination list and dests its interned
	// labels: a transmission that starts with the same bytes names the
	// same destinations, which skips the label decode and the interner.
	labelViews [][]byte
	labels     wire.Interner
	prefix     []byte
	dests      []string

	// qos holds the float64 bits of the last FrameQoS announcement
	// (0 until any arrives, read as scale 1).
	qos atomic.Uint64

	// watch bounds receives on the read deadline, so that Close can still
	// write its goodbye beside a receive a cancelled context interrupted.
	watch keptWatch

	// ended is set by the receive side once the server has retired the
	// session: it sent the stream's goodbye or an eviction notice.
	ended bool

	mu     sync.Mutex
	closed bool
}

// SubDialOpts parameterizes a subscriber session dial beyond the
// required identity (app, source, spec).
type SubDialOpts struct {
	// Queue requests a server-side send-queue depth for this session;
	// 0 accepts the server default.
	Queue int
	// Resume requests replay of the source's durable log from
	// ResumeFrom before the live stream; the server splices the two at
	// a fenced cut-over so the session sees no gap and no duplicate.
	// Requires a durable server. Resume from 0 replays everything.
	Resume     bool
	ResumeFrom uint64
	// Timeout bounds the dial plus handshake; 0 means the 5s default.
	Timeout time.Duration
	// RecvBuffer, when positive, pins the connection's kernel receive
	// buffer to roughly this many bytes (and disables its autotuning).
	// By default the kernel grows the buffer by megabytes for a slow
	// reader, absorbing a large backlog before TCP backpressure reaches
	// the server — which delays the server's slow-consumer policy
	// (block, drop, degrade) from seeing a lagging consumer. A bounded
	// buffer makes consumer lag propagate promptly.
	RecvBuffer int
	// RelayEdge names the edge node on whose behalf the session relays
	// (an edge's upstream leg); empty for an application session.
	RelayEdge string
}

// DialSubscriber joins a source's group. spec is a quality specification
// in the paper's notation, e.g. "DC1(temperature, 0.5, 0.25)"; the
// returned subscriber carries the source schema from the handshake. ctx
// ends the dial and handshake early.
func DialSubscriber(ctx context.Context, addr, app, source, spec string, o SubDialOpts) (*Subscriber, error) {
	hello, err := EncodeSubHello(SubHello{App: app, Source: source, Spec: spec, Queue: o.Queue,
		Resume: o.Resume, ResumeFrom: o.ResumeFrom, RelayEdge: o.RelayEdge})
	if err != nil {
		return nil, err
	}
	conn, payload, err := dialHello(ctx, addr, FrameSubHello, hello, o.Timeout)
	if err != nil {
		return nil, err
	}
	schema, err := DecodeSchema(payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if o.RecvBuffer > 0 {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(o.RecvBuffer)
		}
	}
	c := &Subscriber{conn: conn, rd: stampReader{conn: conn}, schema: schema, app: app, source: source}
	c.br = bufio.NewReaderSize(&c.rd, streamReadBuf)
	return c, nil
}

// stampReader is the connection under a subscriber's read buffer. It
// notes the instant of every socket read that returned bytes: the
// ReceivedAt of each delivery whose frame that read completed, so a
// burst taken by one read costs one clock read.
type stampReader struct {
	conn net.Conn
	at   time.Time
}

func (r *stampReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 {
		r.at = time.Now()
	}
	return n, err
}

// Schema returns the source schema advertised in the handshake.
func (c *Subscriber) Schema() *tuple.Schema { return c.schema }

// App returns the application name of this session.
func (c *Subscriber) App() string { return c.app }

// Source returns the subscribed source name.
func (c *Subscriber) Source() string { return c.source }

// QoS returns the granularity scale the server last announced for this
// session with a FrameQoS frame: 1 until any announcement (and always 1
// outside the degrade slow-consumer policy), larger once the server has
// coarsened the session's effective spec to survive overload.
func (c *Subscriber) QoS() float64 {
	if bits := c.qos.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return 1
}

// RecvInto blocks for the next delivery, until ctx ends, and decodes it
// into d, reusing d.Tuple (allocated when nil), the Destinations backing
// array, the session's payload buffer and its interned label strings. Once
// those have reached their working size a delivery allocates nothing
// (TestRecvIntoZeroAllocs), under a context that cannot be cancelled and
// under one cancellable context passed again and again (see keptWatch); a
// destination label not seen before costs its string. Everything
// reachable from d is valid only until the next RecvInto with the same
// Delivery; a consumer that retains tuples receives each into a fresh
// Delivery. It returns io.EOF-wrapped errors on disconnect and
// ErrStreamEnded once the server ends the stream gracefully (source
// finished or server drained).
func (c *Subscriber) RecvInto(ctx context.Context, d *session.Delivery) error {
	if err := c.watch.arm(ctx, c.conn, true); err != nil {
		return err
	}
	if err := c.decodeNext(d); err != nil {
		return c.watch.failed(ctx, err)
	}
	return nil
}

// decodeNext reads the next transmission and decodes it into d.
func (c *Subscriber) decodeNext(d *session.Delivery) error {
	body, offset, err := c.next()
	if err != nil {
		return err
	}
	if d.Tuple == nil {
		d.Tuple = new(tuple.Tuple)
	}
	p := len(c.prefix)
	if p == 0 || !bytes.HasPrefix(body, c.prefix) {
		views, n, err := wire.DecodeDestinationsInto(c.labelViews[:0], body)
		c.labelViews = views
		if err != nil {
			c.prefix = c.prefix[:0]
			return err
		}
		c.prefix = append(c.prefix[:0], body[:n]...)
		c.dests = c.dests[:0]
		for _, v := range views {
			c.dests = append(c.dests, c.labels.Intern(v))
		}
		p = n
	}
	n, err := wire.DecodeTupleInto(d.Tuple, c.schema, body[p:])
	if err == nil && p+n != len(body) {
		err = fmt.Errorf("server: transmission frame carries %d trailing bytes", len(body)-p-n)
	}
	if err != nil {
		return err
	}
	d.Destinations = append(d.Destinations[:0], c.dests...)
	d.ReceivedAt = c.rd.at
	d.Offset = offset
	return nil
}

// next reads frames until a transmission arrives and returns its body
// (aliasing the session's payload buffer) and log offset.
func (c *Subscriber) next() (body []byte, offset uint64, err error) {
	for {
		kind, payload, err := c.frame()
		if err != nil {
			return nil, 0, err
		}
		if kind == FrameTransmission {
			return payload[8:], binary.LittleEndian.Uint64(payload), nil
		}
	}
}

// frame reads the session's next frame and types it: a transmission
// (its payload, aliasing the session's buffer, starts with the 8-byte log
// offset), a heartbeat, or a QoS announcement, which QoS reports from
// here on. A goodbye, an error frame or an unknown kind ends the stream
// with its typed error.
func (c *Subscriber) frame() (kind byte, payload []byte, err error) {
	kind, payload, err = ReadFrameInto(c.br, c.buf)
	c.buf = payload[:cap(payload)]
	if err != nil {
		return 0, nil, fmt.Errorf("server: receiving: %w", err)
	}
	switch kind {
	case FrameTransmission:
		if len(payload) < 8 {
			return 0, nil, fmt.Errorf("server: truncated offset in transmission frame")
		}
	case FrameHeartbeat:
	case FrameQoS:
		scale, err := DecodeQoS(payload)
		if err != nil {
			return 0, nil, err
		}
		c.qos.Store(math.Float64bits(scale))
	case FrameGoodbye:
		c.ended = true
		return 0, nil, goodbyeEnd(payload)
	case FrameError:
		err := remoteError(payload)
		c.ended = errors.Is(err, ErrEvicted)
		return 0, nil, err
	default:
		return 0, nil, fmt.Errorf("server: unexpected frame kind %d", kind)
	}
	return kind, payload, nil
}

// Close leaves the group: the server removes this application's filter,
// re-deriving the group for the remaining members.
func (c *Subscriber) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	// Unregister only: the connection is going away, and a receive this
	// Close is about to unblock may be running beside it.
	c.watch.drop()
	_ = WriteFrame(c.conn, FrameGoodbye, nil)
	return c.conn.Close()
}

// depart is Leave for a session whose receive loop keeps running on
// another goroutine: it sends the goodbye and leaves the loop to read on
// to the server's departure ack, which ends the stream with
// ErrStreamEnded. timeout bounds the write and the wait for the ack.
func (c *Subscriber) depart(timeout time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := WriteFrame(c.conn, FrameGoodbye, nil); err != nil {
		c.conn.Close()
		return
	}
	c.conn.SetReadDeadline(time.Now().Add(timeout))
}

// Leave is Close that waits for the server's acknowledgment: it sends
// the goodbye, then drains (and discards) the remaining stream until the
// server's final goodbye, which the server writes only after this
// application's filter has left the live group at a tuple boundary. When
// Leave returns nil, the group has been re-derived without this member.
// After a receive has reported the stream's end or an eviction the server
// has already retired the member, and Leave only closes the connection.
// Leave must not race a concurrent RecvInto on the same session.
func (c *Subscriber) Leave(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// A receive watcher left armed would cut the drain below short.
	c.watch.disarm()
	if c.ended {
		c.conn.Close()
		return nil
	}
	err := withConnCtx(ctx, c.conn, func() error {
		if err := WriteFrame(c.conn, FrameGoodbye, nil); err != nil {
			// The server already tore the session down (stream ended or
			// drained); there is no group membership left to wait on.
			return nil
		}
		for {
			// Frames still in flight are discarded; the application is
			// leaving.
			_, _, err := c.frame()
			switch {
			case err == nil:
			case errors.Is(err, ErrStreamEnded), errors.Is(err, io.EOF):
				// The ack, or a close without one because the stream
				// already ended server-side; the group is re-derived
				// either way.
				return nil
			default:
				return fmt.Errorf("server: awaiting departure ack: %w", err)
			}
		}
	})
	cerr := c.conn.Close()
	if err != nil {
		return err
	}
	return cerr
}

// remoteError types a server error-frame payload: slow-consumer
// eviction notices map onto ErrEvicted, everything else stays a generic
// remote error.
func remoteError(payload []byte) error {
	if msg, ok := strings.CutPrefix(string(payload), evictPrefix); ok {
		return fmt.Errorf("%w: %s", ErrEvicted, msg)
	}
	return fmt.Errorf("server: remote error: %s", payload)
}

// Redial is the one reconnect loop of the client sessions — the
// subscriptions Resubscribe reopens and the sources gasf.Dial reopens. It
// calls attempt until one succeeds, one fails for good (retry false), or
// ctx ends; a failure that may heal is followed by delay(n) after the n'th
// consecutive one. The error ending the loop early names what (the session
// being reopened) and the last attempt's error.
func Redial(ctx context.Context, what string, delay func(attempt int) time.Duration, attempt func() (retry bool, err error)) error {
	for n := 0; ; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		retry, err := attempt()
		if err == nil || !retry {
			return err
		}
		if werr := sleepCtx(ctx, delay(n)); werr != nil {
			return fmt.Errorf("server: %s: %w (last dial error: %v)", what, werr, err)
		}
	}
}

// sleepCtx waits for d, or until ctx ends, reporting ctx's error then.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Resubscription describes a subscription for Resubscribe to reopen.
type Resubscription struct {
	App, Source, Spec string
	// Opts holds what every attempt dials with; Resubscribe sets Resume
	// and ResumeFrom per attempt.
	Opts SubDialOpts
	// Resume asks for replay from From: the offset after the last one the
	// subscription delivered, or its original resume point.
	Resume bool
	From   uint64
	// LiveFallback lets a resume the server refuses with
	// ErrResumeUnavailable go on as a live subscription.
	LiveFallback bool
	// Target resolves each attempt's address. moved reports that the
	// stream now comes from a server whose log offsets are not the
	// checkpoint's, which drops the resume.
	Target func() (addr string, moved bool)
	// Delay is the wait after the attempt'th consecutive failure.
	Delay func(attempt int) time.Duration
}

// Resubscribe reopens a subscription through Redial. Attempts resume from
// the checkpoint while it holds. A refused resume goes on live at once
// where the caller allows it; every other failure (a server restarting, a
// source not yet reattached, an old session the server has not yet seen
// die) is retried after the caller's delay. It reports whether the session
// resumed.
func Resubscribe(ctx context.Context, r Resubscription) (*Subscriber, bool, error) {
	resume := r.Resume
	var sub *Subscriber
	dial := func(addr string) (err error) {
		o := r.Opts
		o.Resume, o.ResumeFrom = resume, 0
		if resume {
			o.ResumeFrom = r.From
		}
		sub, err = DialSubscriber(ctx, addr, r.App, r.Source, r.Spec, o)
		return err
	}
	err := Redial(ctx, "resubscribing "+r.App+"/"+r.Source, r.Delay, func() (bool, error) {
		addr, moved := r.Target()
		if moved {
			resume = false
		}
		err := dial(addr)
		if err != nil && resume && r.LiveFallback && errors.Is(err, ErrResumeUnavailable) {
			resume = false
			err = dial(addr)
		}
		return true, err
	})
	if err != nil {
		return nil, false, err
	}
	return sub, resume, nil
}

// ErrResumeUnavailable reports a subscriber handshake rejected because
// the requested resume cannot be served: the server has no durable log,
// the offset lies beyond the log head, or an edge node delegates resume
// to its upstream relay leg. Reconnect-aware dialers fall back to a
// plain live re-subscription on it.
//
// The sentinel's message doubles as the machine-readable wire tag:
// servers wrap it with fmt.Errorf("%w: detail", ...), so the error
// frame renders as "resume unavailable: detail", and rejectedError
// re-types the payload by cutting that exact prefix. Match with
// errors.Is, never by prose.
var ErrResumeUnavailable = session.ErrResumeUnavailable

// ErrAlreadySubscribed reports a subscriber handshake rejected because
// the (app, source) pair is already held by a live session. It is
// transient while a departure ack is in flight, so dialers re-creating
// a session for a departing one may retry it briefly. Tagged on the
// wire exactly like ErrResumeUnavailable.
var ErrAlreadySubscribed = session.ErrAlreadySubscribed

// rejectedError types a handshake rejection payload: resume and
// subscription-conflict rejections carry their sentinel's message as a
// leading tag, so dialers classify them with errors.Is instead of
// matching prose that could be reworded.
func rejectedError(payload []byte) error {
	msg := string(payload)
	for _, sentinel := range []error{ErrResumeUnavailable, ErrAlreadySubscribed} {
		if rest, ok := strings.CutPrefix(msg, sentinel.Error()+": "); ok {
			return fmt.Errorf("server: rejected: %w: %s", sentinel, rest)
		}
	}
	return fmt.Errorf("server: rejected: %s", msg)
}

// ErrStreamEnded reports a graceful end of a subscription stream.
var ErrStreamEnded = fmt.Errorf("server: stream ended")

// ErrServerDraining reports a stream end caused by server shutdown or
// drain (a goodbye frame tagged "drain") rather than by the source
// finishing. It wraps ErrStreamEnded, so callers treating every graceful
// end alike keep working; reconnect-aware clients distinguish it to
// re-establish their sessions against a restarted server.
var ErrServerDraining = fmt.Errorf("%w: server draining", ErrStreamEnded)

// goodbyeEnd types a received goodbye frame by its payload tag: a
// shutdown/drain goodbye maps to ErrServerDraining, a plain stream end
// to ErrStreamEnded.
func goodbyeEnd(payload []byte) error {
	if string(payload) == goodbyeDrainTag {
		return ErrServerDraining
	}
	return ErrStreamEnded
}

// ErrEvicted reports that the server evicted this subscriber session
// under its slow-consumer policy (for example past EvictAfterDrops).
// Recv errors wrap it together with the server's reason; test with
// errors.Is.
var ErrEvicted = errors.New("server: subscriber evicted")
