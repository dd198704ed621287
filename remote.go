package gasf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"gasf/internal/server"
)

// Remote is the networked Broker implementation: every Source and
// Subscription is a TCP session against a gasf-server speaking the
// framed wire protocol (DESIGN.md §7). The handle itself holds no
// connection — sessions dial lazily, bounded by WithDialTimeout or the
// call's context deadline — and Close closes the sessions opened
// through it. With WithReconnect the sessions are self-healing: a lost
// connection is redialed on the configured backoff schedule and the
// stream resumed (see DESIGN.md §14 for the exact continuity contract).
type Remote struct {
	addr string
	cfg  brokerConfig

	mu       sync.Mutex
	closed   bool
	sessions map[any]func() error
}

var _ Broker = (*Remote)(nil)

// Dial returns a Broker driving the gasf-server at addr, e.g.
// "localhost:7070". Engine-shaping options belong to the server and are
// rejected here; WithDialTimeout bounds each session handshake and
// WithReconnect makes the sessions survive connection loss.
func Dial(addr string, opts ...Option) (*Remote, error) {
	cfg, err := resolveBrokerConfig(true, opts)
	if err != nil {
		return nil, err
	}
	return &Remote{addr: addr, cfg: cfg, sessions: make(map[any]func() error)}, nil
}

// track registers a live session for Close (re-registering under the
// same key replaces the close function after a redial); it reports false
// when the broker is already closed.
func (r *Remote) track(key any, close func() error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.sessions[key] = close
	return true
}

// untrack forgets a session that closed itself.
func (r *Remote) untrack(key any) {
	r.mu.Lock()
	delete(r.sessions, key)
	r.mu.Unlock()
}

// OpenSource implements Broker: it opens a publisher session advertising
// the schema in the handshake.
func (r *Remote) OpenSource(ctx context.Context, name string, schema *Schema) (Source, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pub, err := server.DialPublisher(ctx, r.addr, name, schema, r.cfg.dialTimeout)
	if err != nil {
		return nil, err
	}
	src := &remoteSource{r: r, name: name, schema: schema, pub: pub}
	if !r.track(src, pub.Close) {
		pub.Close()
		return nil, errBrokerClosed
	}
	return src, nil
}

// Subscribe implements Broker: the spec is parsed and validated locally,
// then relayed in its canonical (lossless) rendering; the server
// validates it against the source schema and applies the join at a tuple
// boundary before the handshake completes.
func (r *Remote) Subscribe(ctx context.Context, app, source, spec string, opts ...SubOption) (Subscription, error) {
	sp, err := specFor(spec)
	if err != nil {
		return nil, err
	}
	sc, err := resolveSubConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ss, err := server.DialSubscriber(ctx, r.addr, app, source, sp.String(), server.SubDialOpts{
		Queue:      sc.queue,
		Resume:     sc.resume,
		ResumeFrom: sc.resumeFrom,
		Timeout:    r.cfg.dialTimeout,
		RecvBuffer: sc.recvBuffer,
	})
	if err != nil {
		return nil, err
	}
	sub := &remoteSub{
		r:          r,
		sp:         sp,
		app:        app,
		source:     source,
		specStr:    sp.String(),
		queue:      sc.queue,
		recvBuffer: sc.recvBuffer,
		origResume: sc.resume,
		origFrom:   sc.resumeFrom,
	}
	sub.sub.Store(ss)
	if !r.track(sub, ss.Close) {
		ss.Close()
		return nil, errBrokerClosed
	}
	return sub, nil
}

// Close implements Broker: publisher sessions close gracefully (the
// server flushes their tails to their subscribers) and subscriber
// sessions leave their groups. The server itself keeps running.
func (r *Remote) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	open := make([]func() error, 0, len(r.sessions))
	for _, close := range r.sessions {
		open = append(open, close)
	}
	r.sessions = nil
	r.mu.Unlock()
	var errs []error
	for _, close := range open {
		if err := close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// connLost reports whether err looks like a lost connection — the class
// of failure a redial can heal — rather than a caller-side cancellation
// or a protocol-level rejection. context.DeadlineExceeded implements
// net.Error, so the context sentinels are excluded first.
func connLost(err error) bool {
	if err == nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, server.ErrServerDraining) {
		// A drain-tagged goodbye: the stream ended because the server is
		// going down, not because the source finished — exactly the class
		// of failure a redial against a restarted server heals.
		return true
	}
	if errors.Is(err, ErrStreamEnded) || errors.Is(err, server.ErrEvicted) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// sourceWindowCap bounds the reconnect republish window, in tuples: the
// tuples published since the last Sync barrier that a redial would
// republish. Past the cap the oldest are forgotten (and the window
// marked truncated, which disables hint-based trimming — better to
// republish conservatively than to trim against an incomplete window).
const sourceWindowCap = 65536

// remoteSource adapts a publisher session to the unified interface.
// Publishes are serialized under mu. With WithReconnect an unacked window
// of tuples since the last Sync barrier is retained, and a lost connection
// is redialed with the window republished — trimmed by the server's
// durable resume hint so a restart does not duplicate what already
// reached the log.
type remoteSource struct {
	r      *Remote
	name   string
	schema *Schema

	mu        sync.Mutex
	pub       *server.Publisher
	window    []*Tuple
	truncated bool
	finished  bool
}

var _ Source = (*remoteSource)(nil)

func (s *remoteSource) Name() string    { return s.name }
func (s *remoteSource) Schema() *Schema { return s.schema }

func (s *remoteSource) Publish(ctx context.Context, t *Tuple) error {
	return s.PublishBatch(ctx, []*Tuple{t})
}

func (s *remoteSource) PublishBatch(ctx context.Context, tuples []*Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return fmt.Errorf("gasf: source %q finished", s.name)
	}
	err := s.pub.PublishBatch(ctx, tuples)
	if s.r.cfg.reconnect == nil || (err != nil && !connLost(err)) {
		return err
	}
	// The write may have landed partially; remember the batch and let the
	// redial republish the whole window — the server's resume hint trims
	// whatever the old connection actually got into the durable log.
	s.remember(tuples)
	if err == nil {
		return nil
	}
	return s.reopenLocked(ctx)
}

// remember appends tuples to the unacked window, sliding out the oldest
// past the cap.
func (s *remoteSource) remember(tuples []*Tuple) {
	s.window = append(s.window, tuples...)
	if over := len(s.window) - sourceWindowCap; over > 0 {
		n := copy(s.window, s.window[over:])
		clear(s.window[n:])
		s.window = s.window[:n]
		s.truncated = true
	}
}

// reopenLocked redials the publisher session through server.Redial on the
// backoff schedule (bounded by ctx) and republishes the unacked window,
// trimmed by the fresh session's resume hint when the window can be
// trimmed safely. Replayed tuples stay in the window until the next Sync
// barrier acknowledges them.
func (s *remoteSource) reopenLocked(ctx context.Context) error {
	s.pub.Close()
	return server.Redial(ctx, fmt.Sprintf("reopening source %q", s.name), s.r.cfg.reconnect.delay, func() (bool, error) {
		pub, err := server.DialPublisher(ctx, s.r.addr, s.name, s.schema, s.r.cfg.dialTimeout)
		if err != nil {
			return true, err
		}
		s.pub = pub
		if !s.r.track(s, pub.Close) {
			pub.Close()
			return false, errBrokerClosed
		}
		replay := s.window
		if maxSeq, ok := pub.ResumeHint(); ok && !s.truncated {
			replay = trimWindow(replay, maxSeq)
		}
		err = pub.PublishBatch(ctx, replay)
		if connLost(err) {
			pub.Close()
			return true, err
		}
		return false, err
	})
}

// trimWindow drops the window prefix the server already holds (sequence
// numbers <= maxSeq from the durable resume hint). Trimming by sequence
// is only sound when the window's sequence numbers are strictly
// increasing; otherwise the whole window is republished and the engine's
// strictly-increasing-timestamp check rejects true duplicates server
// side on non-durable runs.
func trimWindow(w []*Tuple, maxSeq int64) []*Tuple {
	for i := 1; i < len(w); i++ {
		if w[i].Seq <= w[i-1].Seq {
			return w
		}
	}
	for i, t := range w {
		if int64(t.Seq) > maxSeq {
			return w[i:]
		}
	}
	return nil
}

func (s *remoteSource) Sync(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return fmt.Errorf("gasf: source %q finished", s.name)
	}
	for {
		err := s.pub.Sync(ctx)
		if err == nil {
			// The barrier acknowledges everything published so far: the
			// server has it ordered in the shard ring (and appended, when
			// durable), so the window can be forgotten.
			clear(s.window)
			s.window = s.window[:0]
			s.truncated = false
			return nil
		}
		if s.r.cfg.reconnect == nil || !connLost(err) {
			return err
		}
		if rerr := s.reopenLocked(ctx); rerr != nil {
			return rerr
		}
	}
}

// Finish sends the goodbye and closes the session; the server finishes
// the engine and flushes the tail to the subscribers asynchronously
// (their streams end once it lands). Finish is terminal even with
// reconnect enabled: a lost connection here is not redialed (the
// server's flow-gap expiry finishes an abandoned source on its own).
func (s *remoteSource) Finish(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	s.finished = true
	err := s.pub.Close()
	s.mu.Unlock()
	s.r.untrack(s)
	return err
}

// remoteSub adapts a subscriber session to the unified interface.
// Without WithReconnect it is a veneer over one session; with it, the
// subscription tracks the last delivered durable log offset and a lost
// connection is redialed with Resume from lastOffset+1, splicing the
// redelivered history onto the live stream gapless and duplicate-free.
// A source-finish stream end and an eviction are terminal — never
// redialed; a drain-tagged end (server shutdown) redials like any other
// connection loss.
type remoteSub struct {
	r          *Remote
	sub        atomic.Pointer[server.Subscriber]
	sp         Spec
	app        string
	source     string
	specStr    string
	queue      int
	recvBuffer int
	origResume bool
	origFrom   uint64

	// Receive-side state; Recv/RecvInto are per-session serial (the
	// documented contract on every transport), so none of it needs a
	// lock.
	//
	// ended latches a terminal stream end: the session is closed and
	// untracked right away (a long-lived Remote would otherwise
	// accumulate dead sessions whose callers never Close after
	// ErrStreamEnded), and later receives keep reporting endedErr.
	ended    bool
	endedErr error
	// lastOffset/seen track the newest delivered durable log offset, the
	// resume point after a reconnect.
	lastOffset uint64
	seen       bool
}

var _ Subscription = (*remoteSub)(nil)

func (s *remoteSub) App() string     { return s.app }
func (s *remoteSub) Source() string  { return s.source }
func (s *remoteSub) Schema() *Schema { return s.sub.Load().Schema() }
func (s *remoteSub) Spec() Spec      { return s.sp }

// QoS returns the quality scale last announced by the server's degrade
// policy for this session (1 until any announcement arrives; resets to
// 1 on a reconnect, matching the fresh session's full fidelity).
func (s *remoteSub) QoS() float64 { return s.sub.Load().QoS() }

// Recv is RecvInto into a fresh Delivery, which the caller may keep.
func (s *remoteSub) Recv(ctx context.Context) (*Delivery, error) {
	d := new(Delivery)
	if err := s.RecvInto(ctx, d); err != nil {
		return nil, err
	}
	return d, nil
}

func (s *remoteSub) RecvInto(ctx context.Context, d *Delivery) error {
	if s.ended {
		return s.endedErr
	}
	for {
		err := s.sub.Load().RecvInto(ctx, d)
		if err == nil {
			s.noteOffset(d.Offset)
			return nil
		}
		retry, ferr := s.recvErr(ctx, err)
		if !retry {
			return ferr
		}
	}
}

func (s *remoteSub) noteOffset(off uint64) {
	s.lastOffset, s.seen = off, true
}

// recvErr classifies a receive failure: terminal ends latch the
// subscription, connection loss redials when reconnect is configured
// (retry=true resumes the receive on the fresh session), anything else
// surfaces unchanged.
func (s *remoteSub) recvErr(ctx context.Context, err error) (retry bool, _ error) {
	if errors.Is(err, ErrStreamEnded) {
		if s.r.cfg.reconnect != nil && errors.Is(err, server.ErrServerDraining) {
			// The server is shutting down, not the source finishing:
			// redial and resume against its restarted incarnation. (A
			// permanent shutdown keeps the redial retrying until ctx
			// expires — the caller's ctx bounds the wait.)
			if rerr := s.redial(ctx); rerr != nil {
				return false, rerr
			}
			return true, nil
		}
		s.end(ErrStreamEnded)
		return false, ErrStreamEnded
	}
	if errors.Is(err, server.ErrEvicted) {
		mapped := mapStreamEnd(err)
		s.end(mapped)
		return false, mapped
	}
	if s.r.cfg.reconnect == nil || !connLost(err) {
		return false, err
	}
	if rerr := s.redial(ctx); rerr != nil {
		return false, rerr
	}
	return true, nil
}

// end retires the session on a terminal stream end: the server side is
// already gone, so the connection is released immediately and the broker
// stops tracking it.
func (s *remoteSub) end(err error) {
	s.ended = true
	s.endedErr = err
	_ = s.sub.Load().Close()
	s.r.untrack(s)
}

// redial re-establishes the subscriber session on the backoff schedule,
// bounded by ctx. Against a durable server it resumes from the last
// delivered offset (or the subscription's original resume point if
// nothing was delivered yet), splicing history and live stream with no
// gap and no duplicate. A server that cannot replay (no durable log, an
// offset past the log head, or an edge node whose upstream leg owns the
// resume state) rejects the resume; the redial then falls back to a plain
// live re-subscription, unless the caller asked for the resume point.
func (s *remoteSub) redial(ctx context.Context) error {
	_ = s.sub.Load().Close()
	from := s.origFrom
	if s.seen {
		from = s.lastOffset + 1
	}
	ss, _, err := server.Resubscribe(ctx, server.Resubscription{
		App: s.app, Source: s.source, Spec: s.specStr,
		Opts:   server.SubDialOpts{Queue: s.queue, Timeout: s.r.cfg.dialTimeout, RecvBuffer: s.recvBuffer},
		Resume: s.seen || s.origResume, From: from, LiveFallback: !s.origResume,
		Target: func() (string, bool) { return s.r.addr, false },
		Delay:  s.r.cfg.reconnect.delay,
	})
	if err != nil {
		return err
	}
	s.sub.Store(ss)
	if !s.r.track(s, ss.Close) {
		ss.Close()
		return errBrokerClosed
	}
	return nil
}

// Close leaves the group and waits for the server's departure ack, so a
// caller that continues publishing afterwards knows the group has been
// re-derived without this member.
func (s *remoteSub) Close(ctx context.Context) error {
	if s.ended {
		return nil // the stream ended; the session is gone
	}
	err := s.sub.Load().Leave(ctx)
	s.r.untrack(s)
	return err
}
