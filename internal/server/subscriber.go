package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"time"

	"gasf/internal/session"
	"gasf/internal/telemetry"
	"gasf/internal/wire"
)

// subWriteBatchBytes bounds how many frame bytes one egress cycle
// coalesces into a single vectored write, so one write deadline always
// covers a bounded burst.
const subWriteBatchBytes = 32 << 10

// subscriber is the TCP end of one session member: the connection, and
// the writer goroutine that owns its write side and drains the member's
// queue of frame batches (filled by Server.sink, one queue operation per
// release cycle) into vectored writes. Queue, departure, end of stream,
// eviction and the degrade governor are the member's (session.Member).
type subscriber struct {
	s    *Server
	m    *session.Member[*frameBatch]
	conn net.Conn

	// writerDone is closed when writeLoop exits; the read side waits on
	// it before writing the departure ack, so the two goroutines never
	// interleave writes on the connection.
	writerDone chan struct{}
	// clientLeft marks a departure the read side initiated: it owns the
	// ack and the close, so the writer must exit without either.
	clientLeft atomic.Bool

	// qosKick asks the writer to announce the applied scale (qosScale,
	// float64 bits) to the client with a FrameQoS frame.
	qosKick  chan struct{}
	qosScale atomic.Uint64

	// leg, on an edge node, is the upstream relay leg this session fans
	// out from. Relay members are never joined to the core (a group's
	// members deliberately share one app name); removal refcounts the leg
	// instead of touching a filter.
	leg *relayLeg
	// relayEdge, on a core, names the edge an upstream leg session
	// belongs to (empty for direct subscribers). It is written before the
	// join publishes the member and only read after, by Debug.
	relayEdge string
}

func newSubscriber(s *Server, app, source string, conn net.Conn, queue int) *subscriber {
	sub := &subscriber{s: s, conn: conn, writerDone: make(chan struct{}), qosKick: make(chan struct{}, 1)}
	sub.m = s.core.NewMember(app, source, queue, sub)
	return sub
}

// QoSApplied implements session.Peer: the writer announces the scale now
// in effect. An edge's relay leg forwards its core's announcements to
// every member the same way.
func (sub *subscriber) QoSApplied(scale float64) {
	sub.s.lg.Info("subscriber quality scale applied", "app", sub.m.App, "source", sub.m.Source, "scale", scale)
	sub.qosScale.Store(math.Float64bits(scale))
	select {
	case sub.qosKick <- struct{}{}:
	default:
	}
}

// sendBatch enqueues one release cycle's frames under the slow-consumer
// policy — a single queue operation however many frames the cycle
// released. The batch and every frame reference in it are consumed:
// either the writer releases them after the vectored write, or they are
// released here when the member did not take them. A successful hand-off
// re-checks the departure latch: the writer's exit sweep (drainQueued)
// and this send can interleave so the batch lands after the sweep ran,
// which would strand its frame references outside the free list forever. If
// the member turns out departed, this sender sweeps the queue itself —
// channel receives are exactly-once, so however many racing senders
// sweep, every stranded batch is released exactly once.
func (s *Server) sendBatch(m *session.Member[*frameBatch], b *frameBatch) {
	n := uint64(len(b.frames))
	if !m.Send(b, n) {
		b.releaseAll()
		return
	}
	s.ctr.deliveriesOut.Add(n)
	if m.Departed() {
		drainQueued(m)
	}
}

// evictPrefix tags slow-consumer eviction notices inside error frames,
// so clients can surface a typed ErrEvicted instead of a generic remote
// error.
const evictPrefix = "evicted: "

// drainQueued releases batches left in the queue when the writer exits
// without delivering them (departure or write error), so an abandoning
// exit does not strand refcounted frames outside the free list.
func drainQueued(m *session.Member[*frameBatch]) {
	for {
		select {
		case b := <-m.Queue():
			b.releaseAll()
		default:
			return
		}
	}
}

// egress is the writer's staging area for one vectored write: the iovec
// list handed to net.Buffers, the frames behind it and the batches they
// came in, all returned to the free lists once the kernel has the bytes.
type egress struct {
	bufs   net.Buffers
	frames []*frame
	spent  []*frameBatch
	bytes  int
	// wr is the copy of bufs one write consumes; a field because WriteTo
	// takes its address, which would move a local to the heap every flush.
	wr net.Buffers
}

// stage appends a queued batch's frames to the pending vectored write;
// the emptied batch waits in spent for the flush to recycle it (the
// frames are now referenced by the egress staging until released).
func (e *egress) stage(b *frameBatch) {
	for _, fr := range b.frames {
		e.bufs = append(e.bufs, fr.buf)
		e.frames = append(e.frames, fr)
		e.bytes += len(fr.buf)
	}
	e.spent = append(e.spent, b)
}

// flush ships the staged frames with one vectored write (net.Buffers
// issues writev on TCP, chunking the iovec list as needed) and releases
// every staged reference — the bytes are with the kernel or lost to the
// error either way. The write's frames go back under one lock, its
// batches under another.
func (e *egress) flush(sub *subscriber) error {
	if len(e.frames) == 0 {
		putBatches(e.spent)
		e.spent = e.spent[:0]
		return nil
	}
	tel := sub.s.tel
	var t0 time.Time
	if tel.Sample(telemetry.StageEgressWrite) {
		t0 = time.Now()
	}
	// WriteTo consumes the slice it is called on (advancing the header
	// past written buffers), so it runs on a copy: e.bufs keeps the
	// original header and its capacity survives the reset below.
	e.wr = e.bufs
	n, err := e.wr.WriteTo(sub.conn)
	e.wr = nil
	sub.s.ctr.bytesOut.Add(uint64(n))
	if !t0.IsZero() {
		tel.Observe(telemetry.StageEgressWrite, time.Since(t0))
	}
	if tel != nil && err == nil {
		// One clock read covers the whole vectored write; per-frame
		// latency is the write instant minus the tuple's source
		// timestamp, fed to the session, group, and aggregate
		// estimators (all alloc-free frugal updates).
		now := time.Now().UnixNano()
		for _, fr := range e.frames {
			if fr.ts == 0 {
				continue
			}
			d := time.Duration(now - fr.ts)
			sub.m.Lat.Observe(d)
			fr.src.Observe(d)
			tel.ObserveDelivery(d)
		}
	}
	releaseFrames(e.frames)
	putBatches(e.spent)
	clear(e.bufs)
	e.frames = e.frames[:0]
	e.spent = e.spent[:0]
	e.bufs = e.bufs[:0]
	e.bytes = 0
	return err
}

// writeLoop owns the connection's write side: it streams queued frame
// batches — coalescing whatever is already queued into one vectored
// write instead of one syscall (or one buffer copy) per frame —
// heartbeats when idle, and finishes with a goodbye when the stream
// ends.
func (sub *subscriber) writeLoop() {
	defer sub.s.connWG.Done()
	defer close(sub.writerDone)
	defer drainQueued(sub.m)
	m, cfg := sub.m, &sub.s.cfg
	fail := func() {
		sub.s.removeSubscriber(sub)
		sub.conn.Close()
	}
	if m.Resume {
		// History first: stream the app's slice of the durable log up to
		// the splice fence. Live deliveries released meanwhile queue up
		// (they all carry offsets at or above the fence) and drain below in
		// order, so the client sees one seamless, gapless stream.
		if err := sub.replay(); err != nil {
			if errors.Is(err, errReplayAborted) {
				sub.departed()
			} else {
				sub.s.lg.Warn("replay failed", "source", m.Source, "app", m.App, "err", err)
				fail()
			}
			return
		}
	}
	var e egress
	// write ships the batch just dequeued plus whatever else is already
	// queued, bounded so one write deadline covers a bounded burst; it
	// reports whether the queue ran empty.
	write := func(b *frameBatch) (empty bool, err error) {
		sub.conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		e.stage(b)
		for !empty && e.bytes < subWriteBatchBytes {
			select {
			case more := <-m.Queue():
				e.stage(more)
			default:
				empty = true
			}
		}
		return empty, e.flush(sub)
	}
	hb := time.NewTicker(cfg.HeartbeatInterval)
	defer hb.Stop()
	for {
		select {
		case <-m.Done():
			sub.departed()
			return
		case b := <-m.Queue():
			if _, err := write(b); err != nil {
				fail()
				return
			}
		case <-m.Fin():
			// The stream ended and nothing more will be queued: ship what
			// the queue still holds, then say goodbye.
			for empty := false; !empty; {
				select {
				case b := <-m.Queue():
					var err error
					if empty, err = write(b); err != nil {
						fail()
						return
					}
				default:
					empty = true
				}
			}
			sub.goodbye()
			// Mark the session ended server-side for the read side; the
			// group is already retired, so there is nothing to detach.
			_ = sub.s.core.Leave(context.Background(), m)
			sub.conn.Close()
			return
		case <-sub.qosKick:
			sub.conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
			if err := WriteFrame(sub.conn, FrameQoS, EncodeQoS(math.Float64frombits(sub.qosScale.Load()))); err != nil {
				fail()
				return
			}
		case <-hb.C:
			sub.conn.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
			if err := WriteFrame(sub.conn, FrameHeartbeat, nil); err != nil {
				fail()
				return
			}
		}
	}
}

// goodbye writes the server's end-of-stream frame. A stream end during
// server drain is tagged so reconnect-aware subscribers resume against a
// restarted server instead of treating the end as the source finishing.
func (sub *subscriber) goodbye() {
	var payload []byte
	if sub.s.isDraining() {
		payload = goodbyeDrainPayload
	}
	sub.conn.SetWriteDeadline(time.Now().Add(sub.s.cfg.WriteTimeout))
	_ = WriteFrame(sub.conn, FrameGoodbye, payload)
}

// departed handles a departure the writer did not initiate. When the read
// side left, it owes the client the departure ack and closes the
// connection itself, so the writer just exits (the peer is not reading
// what is still queued anyway). Otherwise the core ended the session —
// an eviction, or a hard abort marking every member gone — and the writer
// ends the connection: with the typed notice when there is one (a
// drop-threshold eviction happens while the connection is writable, so
// the notice is deliverable), with the drain goodbye on an abort.
func (sub *subscriber) departed() {
	if sub.clientLeft.Load() {
		return
	}
	if reason := sub.m.EvictReason(); reason != "" {
		sub.s.lg.Warn("subscriber evicted", "app", sub.m.App, "source", sub.m.Source, "reason", reason)
		sub.conn.SetWriteDeadline(time.Now().Add(sub.s.cfg.WriteTimeout))
		_ = WriteFrame(sub.conn, FrameError, []byte(evictPrefix+reason))
	} else {
		sub.goodbye()
	}
	sub.s.removeSubscriber(sub)
	sub.conn.Close()
}

// errReplayAborted marks a replay cut short by the subscriber's own
// departure — an orderly exit, not a failure.
var errReplayAborted = errors.New("server: replay aborted by departure")

// replay streams the records of [resumeFrom, spliceTo) addressed to
// this app from the durable log, each as an offset-bearing transmission
// frame. The log holds exactly the bytes the live fan-out delivered, so
// the replayed stream is byte-identical to what the app would have
// received live; records not naming the app (delivered while it was
// away, to others) are skipped without decoding their tuples.
func (sub *subscriber) replay() error {
	var buf []byte
	m := sub.m
	err := sub.s.core.Log().Read(m.Source, m.ResumeFrom, m.SpliceTo, func(off uint64, payload []byte) error {
		if m.Departed() {
			return errReplayAborted
		}
		if !wire.TransmissionHasDestination(payload, m.App) {
			return nil
		}
		buf = beginFrame(buf[:0], FrameTransmissionOff)
		buf = binary.LittleEndian.AppendUint64(buf, off)
		buf = append(buf, payload...)
		buf = endFrame(buf)
		sub.conn.SetWriteDeadline(time.Now().Add(sub.s.cfg.WriteTimeout))
		n, err := sub.conn.Write(buf)
		sub.s.ctr.bytesOut.Add(uint64(n))
		if err != nil {
			return err
		}
		sub.s.ctr.replayRecordsOut.Add(1)
		return nil
	})
	if err == nil {
		sub.s.ctr.replaysServed.Add(1)
	}
	return err
}

// readLoop consumes the client's side of the session until it leaves
// (goodbye or disconnect); client heartbeats are permitted and ignored.
// A client-initiated departure is acknowledged with a final goodbye
// written only after the filter has left the live group and the writer
// has stopped — a client that waits for the ack (Leave) knows its
// removal has been applied at a tuple boundary.
func (sub *subscriber) readLoop() {
	br := bufio.NewReaderSize(sub.conn, 4<<10)
	var buf []byte
	for {
		kind, b, err := ReadFrameInto(br, buf)
		if err != nil {
			break
		}
		buf = b
		if kind == FrameGoodbye {
			break
		}
	}
	// If the session already ended server-side (source finished, eviction
	// or shutdown) there is nothing left to detach or acknowledge.
	if !sub.m.Departed() {
		sub.clientLeft.Store(true)
		sub.s.removeSubscriber(sub)
		<-sub.writerDone
		sub.conn.SetWriteDeadline(time.Now().Add(sub.s.cfg.WriteTimeout))
		_ = WriteFrame(sub.conn, FrameGoodbye, nil)
	}
	sub.conn.Close()
}
