package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/federate"
	"gasf/internal/quality"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// FederationConfig places a server in a multi-broker topology. The
// zero value is the standalone single-node broker, byte-for-byte the
// pre-federation behavior.
type FederationConfig struct {
	// Role selects the node's tier: RoleCore owns sources (publishers
	// connect here, engines run here), RoleEdge holds subscriber
	// sessions and opens at most one upstream subscription per
	// (source-owning core, group). RoleSingle is the standalone broker.
	Role federate.Role
	// Self is this node's name in the peer list. Required for edges
	// (upstream legs identify themselves with it); optional for cores,
	// where setting it together with Peers turns on placement
	// enforcement — publishers for sources this core does not own are
	// redirected to the owner.
	Self string
	// Peers is the core tier: every core node, by stable name and
	// address. Placement is consistent hashing of the source name over
	// this set, so every node handed the same peer list computes the
	// same owner for every source. Required for edges.
	Peers []federate.Node
	// DialTimeout bounds one upstream leg dial + handshake; 0 means 5s.
	DialTimeout time.Duration
}

// legKey is the dedup identity of one upstream leg: the source plus
// the group — app and the canonical quality-spec rendering. However
// many local subscribers share the key, the core→edge link carries the
// group's filtered stream exactly once.
type legKey struct {
	source, app, spec string
}

// relayMgr is an edge node's upstream-leg registry: one refcounted leg
// per legKey, created by the first local subscriber of a group and
// torn down through the acked-departure path by the last leave.
type relayMgr struct {
	s       *Server
	self    string
	timeout time.Duration
	// lat estimates relay delivery latency (tuple source timestamp to
	// edge egress write) over sampled frames. Nil when telemetry is off.
	lat *telemetry.LatencyPair

	mu     sync.Mutex
	legs   map[legKey]*relayLeg
	closed bool
}

func newRelayMgr(s *Server) *relayMgr {
	m := &relayMgr{
		s:       s,
		self:    s.cfg.Federation.Self,
		timeout: s.cfg.Federation.DialTimeout,
		legs:    make(map[legKey]*relayLeg),
	}
	if m.timeout <= 0 {
		m.timeout = 5 * time.Second
	}
	if s.tel != nil {
		m.lat = telemetry.NewLatencyPair()
	}
	return m
}

// relayLeg is one upstream subscription: a connection to the
// source-owning core carrying the group's filtered stream, fanned out
// to every local member through the recycled refcounted frame path. The
// leg speaks the ordinary subscriber protocol (version 3 hello), so
// the core sees exactly the membership a single-node deployment would.
type relayLeg struct {
	mgr   *relayMgr
	key   legKey
	queue int

	// ready is closed once the first dial resolves; err (set before the
	// close) rejects waiters when it failed. schemaPayload is the
	// upstream hello-ok body, replayed verbatim to every local member's
	// handshake.
	ready         chan struct{}
	err           error
	schemaPayload []byte
	schema        *tuple.Schema

	// closing latches teardown (last member left, or shutdown); bye
	// interrupts redial backoff; done closes when the run loop exits.
	closing atomic.Bool
	bye     chan struct{}
	done    chan struct{}

	mu      sync.Mutex
	members []*subscriber
	scratch []*subscriber // fan-out copy, so sends run outside the lock
	// batches is the run loop's take of empty batches, one per member.
	batches []*frameBatch
	conn    net.Conn
	// coreName is the owner the current connection was dialed against;
	// when a rebalance moves the source, resume state resets (offsets
	// name positions in per-core logs and do not transfer).
	coreName string

	// Resume state, written by the run loop per offset-bearing frame and
	// read by introspection, hence atomic.
	lastOffset atomic.Uint64
	seenOffset atomic.Bool
	durable    atomic.Bool
}

// errLegClosing reports an upstream leg torn down mid-operation.
var errLegClosing = errors.New("server: upstream leg closing")

// ensureLeg finds or creates the leg for a group. The creator performs
// the first upstream dial outside the registry lock; concurrent
// subscribers of the same group wait on ready and share the result.
func (m *relayMgr) ensureLeg(key legKey, queue int) (*relayLeg, error) {
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, errDraining
		}
		leg := m.legs[key]
		if leg == nil {
			// (source, app) is unique broker-wide, exactly as on a single
			// node: a same-app subscription under a different spec is a
			// conflict, rejected here rather than discovered as an
			// "already subscribed" refusal from the core after retries.
			for k, other := range m.legs {
				if k.source == key.source && k.app == key.app && !other.closing.Load() {
					m.mu.Unlock()
					return nil, fmt.Errorf("app %q already subscribed to source %q with a different spec", key.app, key.source)
				}
			}
			leg = &relayLeg{
				mgr:   m,
				key:   key,
				queue: queue,
				ready: make(chan struct{}),
				bye:   make(chan struct{}),
				done:  make(chan struct{}),
			}
			m.legs[key] = leg
			m.mu.Unlock()
			if err := leg.dialFirst(); err != nil {
				m.drop(leg)
				leg.err = err
				close(leg.ready)
				close(leg.done)
				return nil, err
			}
			close(leg.ready)
			m.s.connWG.Add(1)
			go leg.run()
			return leg, nil
		}
		m.mu.Unlock()
		<-leg.ready
		if leg.err != nil {
			return nil, leg.err
		}
		if leg.closing.Load() {
			// Raced with the last member's teardown; wait it out and
			// create a fresh leg. The wait matters: the core rejects a
			// second session for the app until the departure is acked.
			<-leg.done
			continue
		}
		return leg, nil
	}
}

// drop removes a leg from the registry (if still registered).
func (m *relayMgr) drop(leg *relayLeg) {
	m.mu.Lock()
	if m.legs[leg.key] == leg {
		delete(m.legs, leg.key)
	}
	m.mu.Unlock()
}

// attach adds a local member to the leg; false when the leg began
// closing concurrently (the caller re-runs ensureLeg).
func (leg *relayLeg) attach(sub *subscriber) bool {
	leg.mu.Lock()
	defer leg.mu.Unlock()
	if leg.closing.Load() {
		return false
	}
	leg.members = append(leg.members, sub)
	return true
}

// detach removes a departed member. The last member's departure tears
// the leg down through the acked path: a goodbye upstream, then a wait
// for the core's departure ack (bounded by read deadlines), so when
// the local client's own Leave ack goes out, the group at the core has
// already been re-derived without this app — exactly the ordering a
// single-node departure guarantees.
func (m *relayMgr) detach(sub *subscriber) {
	leg := sub.leg
	leg.mu.Lock()
	for i, s2 := range leg.members {
		if s2 == sub {
			leg.members = append(leg.members[:i], leg.members[i+1:]...)
			break
		}
	}
	// The CAS is the teardown latch: detach and shutdown race to it, and
	// only the winner closes bye (a second close would panic).
	last := len(leg.members) == 0 && leg.closing.CompareAndSwap(false, true)
	var conn net.Conn
	if last {
		conn = leg.conn
	}
	leg.mu.Unlock()
	if !last {
		return
	}
	m.drop(leg)
	close(leg.bye)
	if conn != nil {
		conn.SetWriteDeadline(time.Now().Add(m.s.cfg.WriteTimeout))
		if err := WriteFrame(conn, FrameGoodbye, nil); err != nil {
			conn.Close()
		} else {
			// The run loop exits on the core's ack; the deadline bounds
			// the wait if the core never answers.
			conn.SetReadDeadline(time.Now().Add(m.s.cfg.WriteTimeout))
		}
	}
	<-leg.done
}

// dialFirst opens the leg's first upstream connection, inside the
// subscriber handshake of the member that created it. Most rejections
// (unknown source, bad spec) surface immediately — the local client
// sees the same error a single-node subscribe would — but a transient
// "already subscribed" is retried briefly: it means the previous leg
// for this group is mid-teardown and the core has not acked its
// departure yet.
func (leg *relayLeg) dialFirst() error {
	m := leg.mgr
	deadline := time.Now().Add(m.s.cfg.HandshakeTimeout)
	for {
		core, ok := m.s.ownerOf(leg.key.source)
		if !ok {
			return fmt.Errorf("server: no core topology to place source %q", leg.key.source)
		}
		conn, payload, err := leg.dialUpstream(core, false)
		if err == nil {
			schema, derr := DecodeSchema(payload)
			if derr != nil {
				conn.Close()
				return fmt.Errorf("server: upstream schema: %w", derr)
			}
			leg.schemaPayload, leg.schema = payload, schema
			// Publish the conn under the lock, re-checking closing: a
			// server shutdown that snapshotted this leg mid-dial saw conn
			// nil and is waiting on done, so the dial must not hand a live
			// conn to a run loop shutdown can no longer interrupt.
			leg.mu.Lock()
			if leg.closing.Load() {
				leg.mu.Unlock()
				conn.Close()
				return errDraining
			}
			leg.conn, leg.coreName = conn, core.Name
			leg.mu.Unlock()
			m.s.ctr.fedLegDials.Add(1)
			m.s.lg.Info("upstream leg opened", "source", leg.key.source, "app", leg.key.app, "core", core.Name)
			return nil
		}
		if !errors.Is(err, ErrAlreadySubscribed) || time.Now().After(deadline) {
			return err
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-m.s.stop:
			return errDraining
		}
	}
}

// dialUpstream performs one relay handshake against a core.
func (leg *relayLeg) dialUpstream(core federate.Node, resume bool) (net.Conn, []byte, error) {
	hello, err := EncodeSubHelloRelay(leg.key.app, leg.key.source, leg.key.spec,
		leg.queue, resume, leg.lastOffset.Load()+1, leg.mgr.self)
	if err != nil {
		return nil, nil, err
	}
	return dialHello(core.Addr, FrameSubHello, hello, leg.mgr.timeout)
}

// relay stream-end reasons.
const (
	relayRedial = iota // drain goodbye, error frame or connection error
	relayFinish        // plain goodbye: the source finished upstream
	relayClosed        // teardown ack after a local goodbye
)

// run is the leg's read loop: it decodes nothing it does not have to,
// reconstructs each transmission frame byte-identically (same kind,
// same payload — offsets included), and fans it out to every local
// member through the refcounted frame free list. On a drain goodbye or a
// connection error it redials with backoff, resuming a durable
// upstream from lastOffset+1 so members ride through core restarts and
// partitions without a gap or a duplicate.
func (leg *relayLeg) run() {
	defer leg.mgr.s.connWG.Done()
	defer close(leg.done)
	for {
		leg.mu.Lock()
		conn := leg.conn
		leg.mu.Unlock()
		reason := leg.readStream(conn)
		conn.Close()
		if leg.closing.Load() || reason == relayClosed {
			return
		}
		if reason == relayFinish {
			leg.finishMembers()
			leg.mgr.drop(leg)
			return
		}
		if !leg.redial() {
			return
		}
	}
}

// readStream consumes one upstream connection until it ends.
// Transmission frames are fanned out in runs: the frames already whole
// in the read buffer (the frameBuffered guard readSource uses, bounded
// by the flush batch) go to each member as one batch, and a run never
// waits for bytes that have not arrived. Any other frame, and the end of
// the stream, first flushes the run, so members see the upstream order.
func (leg *relayLeg) readStream(conn net.Conn) int {
	br := bufio.NewReaderSize(conn, streamReadBuf)
	runMax := leg.mgr.s.flushBatch()
	var (
		buf   []byte
		run   = make([]*frame, 0, runMax)
		stash frameStash
		// Relay-latency sampling state: decoding every transmission just
		// to read its timestamp would tax the relay hot path, so one in
		// relaySampleEvery frames is decoded into reused scratch.
		nframes uint64
		scratch tuple.Tuple
		labels  [][]byte
	)
	defer stash.drop()
	for {
		kind, b, err := ReadFrameInto(br, buf)
		if err != nil {
			run = leg.fanout(run)
			if !leg.closing.Load() {
				leg.mgr.s.lg.Warn("upstream leg lost", "source", leg.key.source, "app", leg.key.app, "err", err)
			}
			return relayRedial
		}
		buf = b
		if kind != FrameTransmission && kind != FrameTransmissionOff {
			run = leg.fanout(run)
		}
		switch kind {
		case FrameTransmission, FrameTransmissionOff:
			payload := buf
			if kind == FrameTransmissionOff {
				if len(payload) < 8 {
					leg.fanout(run)
					return relayRedial
				}
				leg.lastOffset.Store(binary.LittleEndian.Uint64(payload))
				leg.seenOffset.Store(true)
				leg.durable.Store(true)
				payload = payload[8:]
			}
			leg.mgr.s.ctr.fedRelayFrames.Add(1)
			fr := stash.get(runMax-len(run), frameHeaderLen+len(buf))
			fr.buf = endFrame(append(beginFrame(fr.buf, kind), buf...))
			fr.src = leg.mgr.lat
			if leg.mgr.lat != nil && nframes%relaySampleEvery == 0 {
				if l, _, err := wire.DecodeTransmissionInto(&scratch, leg.schema, labels[:0], payload); err == nil {
					labels = l
					fr.ts = scratch.TS.UnixNano()
				}
			}
			nframes++
			run = append(run, fr)
			if len(run) < runMax && frameBuffered(br) {
				continue // the next frame is already here: extend the run
			}
			run = leg.fanout(run)
		case FrameQoS:
			// The core degraded (or restored) the group's effective
			// quality; forward the announcement to every member.
			if scale, err := DecodeQoS(buf); err == nil {
				leg.forwardQoS(scale)
			}
		case FrameHeartbeat:
			// Members heartbeat on their own writer's idle timer.
		case FrameGoodbye:
			if leg.closing.Load() {
				return relayClosed
			}
			if string(buf) == goodbyeDrainTag {
				return relayRedial
			}
			return relayFinish
		case FrameError:
			leg.mgr.s.lg.Warn("upstream leg error", "source", leg.key.source, "app", leg.key.app, "err", string(buf))
			return relayRedial
		}
	}
}

// relaySampleEvery sets the relay-latency sampling period: one in this
// many relayed frames is decoded for its source timestamp.
const relaySampleEvery = 8

// fanout hands a run of reconstructed frames to every local member with
// the core sink's discipline: each frame was encoded once into a
// recycled refcounted frame, is retained per member, and each member
// gets the whole run in one queue hand-off. The member list is copied
// once per run, under the lock, so a slow member blocking under
// PolicyBlock never holds up a concurrent detach. It returns run emptied.
func (leg *relayLeg) fanout(run []*frame) []*frame {
	if len(run) == 0 {
		return run
	}
	leg.mu.Lock()
	members := append(leg.scratch[:0], leg.members...)
	leg.scratch = members
	leg.mu.Unlock()
	if len(members) == 0 {
		for _, fr := range run {
			fr.retain(1)
		}
		releaseFrames(run)
		return run[:0]
	}
	for _, fr := range run {
		fr.retain(len(members))
	}
	s := leg.mgr.s
	leg.batches = takeBatches(leg.batches[:0], len(members), s.flushBatch())
	for i, sub := range members {
		b := leg.batches[i]
		leg.batches[i] = nil
		b.frames = append(b.frames, run...)
		s.sendBatch(sub.m, b)
	}
	clear(run)
	return run[:0]
}

// forwardQoS mirrors an upstream QoS announcement to every member.
func (leg *relayLeg) forwardQoS(scale float64) {
	leg.mu.Lock()
	members := append(leg.scratch[:0], leg.members...)
	leg.scratch = members
	leg.mu.Unlock()
	for _, sub := range members {
		sub.QoSApplied(scale)
	}
}

// finishMembers ends every member's stream gracefully (the upstream
// source finished): the member writers drain their queues and send the
// same goodbye a single-node subscriber would receive.
func (leg *relayLeg) finishMembers() {
	leg.mu.Lock()
	members := append([]*subscriber(nil), leg.members...)
	leg.mu.Unlock()
	for _, sub := range members {
		sub.m.EndStream()
	}
}

// redial re-establishes the upstream leg after a drain goodbye, an
// error, or a rebalance-forced disconnect, with exponential backoff.
// Against a durable core it resumes from lastOffset+1 — the splice
// fence on the core makes the replayed tail plus the live stream
// gapless and duplicate-free — and falls back to a live subscribe when
// resume is impossible (non-durable core, or the source moved to a
// core whose log does not contain the old offsets).
func (leg *relayLeg) redial() bool {
	m := leg.mgr
	backoff := 20 * time.Millisecond
	for {
		if leg.closing.Load() {
			return false
		}
		core, ok := m.s.ownerOf(leg.key.source)
		if !ok {
			return false
		}
		if core.Name != leg.coreName {
			// The source moved: offsets name positions in the old core's
			// log and mean nothing on the new one. Rejoin live; the
			// rebalance protocol quiesces publishers across the move, so
			// the live rejoin loses nothing.
			leg.seenOffset.Store(false)
			leg.durable.Store(false)
		}
		resume := leg.durable.Load() && leg.seenOffset.Load()
		conn, payload, err := leg.dialUpstream(core, resume)
		if err == nil {
			if schema, derr := DecodeSchema(payload); derr == nil {
				leg.schema = schema
			}
			leg.mu.Lock()
			if leg.closing.Load() {
				leg.mu.Unlock()
				conn.Close()
				return false
			}
			leg.conn, leg.coreName = conn, core.Name
			leg.mu.Unlock()
			m.s.ctr.fedLegRedials.Add(1)
			if resume {
				m.s.ctr.fedLegResumes.Add(1)
			}
			m.s.lg.Info("upstream leg re-established", "source", leg.key.source, "app", leg.key.app,
				"core", core.Name, "resume", resume)
			return true
		}
		if resume && errors.Is(err, ErrResumeUnavailable) {
			// The core came back without its log (or without durability);
			// a live rejoin is the best remaining contract.
			leg.seenOffset.Store(false)
			leg.durable.Store(false)
			continue
		}
		select {
		case <-leg.bye:
			return false
		case <-m.s.stop:
			return false
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// shutdown tears down every leg during server drain: upstream conns
// close (the cores clean their sessions on disconnect), run loops
// exit, and every local member's stream finishes with the drain-tagged
// goodbye the writer emits while the server drains.
func (m *relayMgr) shutdown() {
	m.mu.Lock()
	m.closed = true
	legs := make([]*relayLeg, 0, len(m.legs))
	for _, leg := range m.legs {
		legs = append(legs, leg)
	}
	m.legs = make(map[legKey]*relayLeg)
	m.mu.Unlock()
	for _, leg := range legs {
		if leg.closing.CompareAndSwap(false, true) {
			// Lost to a concurrent last-member detach otherwise: it owns
			// bye, and its teardown closes the leg on its own.
			close(leg.bye)
		}
		leg.mu.Lock()
		conn := leg.conn
		leg.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	}
	for _, leg := range legs {
		<-leg.done
		leg.finishMembers()
	}
}

// counts reports the live leg and member totals.
func (m *relayMgr) counts() (legs, members int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, leg := range m.legs {
		legs++
		leg.mu.Lock()
		members += len(leg.members)
		leg.mu.Unlock()
	}
	return legs, members
}

// serveEdgeSubscriber runs a local subscriber session on an edge node:
// instead of joining an engine, the session joins (or creates) the
// upstream leg for its group and fans out from it. The handshake
// answer is the core's own hello-ok schema, so clients cannot tell an
// edge from a single-node broker.
func (s *Server) serveEdgeSubscriber(sub *subscriber, h SubHello, spec quality.Spec) {
	conn := sub.conn
	if h.Relay {
		s.reject(conn, fmt.Errorf("edge node cannot serve a relay leg (relay hellos go to cores)"))
		return
	}
	if h.Resume {
		// Resume state lives in the core's durable log. A partitioned
		// edge resumes its upstream legs itself; local clients just
		// reconnect and stream live. The typed rejection is what makes
		// that true: a reconnecting client redialing with Resume matches
		// ErrResumeUnavailable and falls back to a live re-subscription.
		s.reject(conn, fmt.Errorf("%w: an edge node serves live streams only (its upstream leg resumes on the subscribers' behalf)", ErrResumeUnavailable))
		return
	}
	// The canonical spec rendering is the dedup key: equivalent specs
	// parse and re-render identically, so equal groups share one leg.
	key := legKey{source: h.Source, app: h.App, spec: spec.String()}
	for {
		// A leg created here asks the core for this member's queue depth
		// (the hello's, after the edge's defaulting and clamping).
		leg, err := s.fed.ensureLeg(key, sub.m.QueueCap())
		if err != nil {
			s.reject(conn, err)
			return
		}
		sub.leg = leg
		sub.m.OpenQueue() // the leg validated the group upstream; fan-out may now reach it
		if leg.attach(sub) {
			break
		}
		// The leg closed between lookup and attach (last member left);
		// ensureLeg will wait out the teardown and dial a fresh one.
	}
	if err := WriteFrame(conn, FrameHelloOK, sub.leg.schemaPayload); err != nil {
		s.removeSubscriber(sub)
		// No writer will run: what the fan-out queued since the join
		// goes back to the free list here.
		drainQueued(sub.m)
		conn.Close()
		return
	}
	s.ctr.subscribersAccepted.Add(1)
	s.lg.Info("subscriber joined", "app", h.App, "source", h.Source, "spec", key.spec, "via_leg", true)
	s.connWG.Add(1)
	go sub.writeLoop()
	sub.readLoop()
}

// FederationStats is a point-in-time view of a node's federation
// state, for metrics, loadbench reports and introspection.
type FederationStats struct {
	Role string `json:"role"`
	Self string `json:"self,omitempty"`
	// UpstreamLegs and LocalSubscribers describe an edge's relay state;
	// DedupRatio is local subscribers per upstream leg — the group-aware
	// dedup factor the federation exists to deliver (1 means no sharing;
	// K means each inter-node stream serves K local sessions).
	UpstreamLegs     int     `json:"upstream_legs"`
	LocalSubscribers int     `json:"local_subscribers"`
	DedupRatio       float64 `json:"dedup_ratio"`
	// Relay is the sampled relay delivery latency (tuple source
	// timestamp to edge egress write).
	Relay telemetry.LatencySnapshot `json:"relay_latency"`
}

// FederationStats snapshots the node's federation state. The zero Role
// string "single" reports a standalone node.
func (s *Server) FederationStats() FederationStats {
	st := FederationStats{
		Role: s.cfg.Federation.Role.String(),
		Self: s.cfg.Federation.Self,
	}
	if s.fed != nil {
		st.UpstreamLegs, st.LocalSubscribers = s.fed.counts()
		if st.UpstreamLegs > 0 {
			st.DedupRatio = float64(st.LocalSubscribers) / float64(st.UpstreamLegs)
		}
		st.Relay = s.fed.lat.Snapshot()
	}
	return st
}

// ownerOf resolves the core owning a source under the current
// topology; ok is false on a node with no core topology configured.
func (s *Server) ownerOf(source string) (federate.Node, bool) {
	s.fedMu.RLock()
	topo := s.topo
	s.fedMu.RUnlock()
	if topo == nil {
		return federate.Node{}, false
	}
	return topo.Owner(source), true
}

// UpdatePeers installs a new core peer list — the rebalance entry
// point for node join/leave. Placement recomputes immediately; on an
// edge, every leg whose source moved to a different core is forced off
// its connection, and its run loop re-subscribes live against the new
// owner. Callers orchestrating a move quiesce the affected publishers
// (Sync, then reopen on the new owner) around this call; the parity
// suite pins the resulting streams gapless.
func (s *Server) UpdatePeers(cores []federate.Node) error {
	topo, err := federate.NewTopology(cores)
	if err != nil {
		return err
	}
	s.fedMu.Lock()
	s.topo = topo
	s.fedMu.Unlock()
	if s.fed == nil {
		return nil
	}
	s.fed.mu.Lock()
	legs := make([]*relayLeg, 0, len(s.fed.legs))
	for _, leg := range s.fed.legs {
		legs = append(legs, leg)
	}
	s.fed.mu.Unlock()
	moved := 0
	for _, leg := range legs {
		owner := topo.Owner(leg.key.source)
		leg.mu.Lock()
		conn := leg.conn
		stale := conn != nil && leg.coreName != owner.Name
		leg.mu.Unlock()
		if stale {
			// Cutting the connection sends the run loop through redial,
			// which re-resolves the owner and rejoins there.
			conn.Close()
			moved++
		}
	}
	s.lg.Info("peers updated", "cores", len(cores), "legs_moved", moved)
	return nil
}
