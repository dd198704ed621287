package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
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
	s    *Server
	self string
	// lat is the relay delivery-latency view (tuple source timestamp to
	// edge egress write) over sampled frames: every relay member's Group.
	// Nil when telemetry is off.
	lat *telemetry.LatencyHist

	mu     sync.Mutex
	legs   map[legKey]*relayLeg
	closed bool
}

func newRelayMgr(s *Server) *relayMgr {
	m := &relayMgr{
		s:    s,
		self: s.cfg.Federation.Self,
		legs: make(map[legKey]*relayLeg),
	}
	if s.tel != nil {
		m.lat = new(telemetry.LatencyHist)
	}
	return m
}

// legState is a relay leg's lifecycle:
//
//	opening → live ⇄ redialing → finished | closing → closed
//
// A leg opens inside the handshake of the member that creates it, relays
// while live and redials a lost session. It finishes when the source
// finishes upstream and closes when its last member leaves or the server
// shuts down; a failed first dial goes straight to closed. Members attach
// only while it is live or redialing, and the registry holds exactly the
// legs that are opening, live or redialing.
type legState uint8

const (
	legOpening legState = iota
	legLive
	legRedialing
	legFinished
	legClosing
	legClosed
)

func (st legState) String() string {
	return [...]string{"opening", "live", "redialing", "finished", "closing", "closed"}[st]
}

// legEdges holds each state's legal successors as a bit set.
var legEdges = [...]uint8{
	legOpening:   1<<legLive | 1<<legClosing | 1<<legClosed,
	legLive:      1<<legRedialing | 1<<legFinished | 1<<legClosing,
	legRedialing: 1<<legLive | 1<<legClosing,
	legFinished:  1 << legClosed,
	legClosing:   1 << legClosed,
	legClosed:    0,
}

// relayLeg is one upstream subscription: a client Subscriber session
// with the source-owning core carrying the group's filtered stream,
// fanned out to every local member through the recycled refcounted frame
// path. The session is an ordinary subscriber marked with the edge's
// name, so the core sees exactly the membership a single-node deployment
// would.
type relayLeg struct {
	mgr   *relayMgr
	key   legKey
	queue int
	// ctx ends when the leg starts closing, cancelling a dial in flight.
	ctx    context.Context
	cancel context.CancelFunc
	// schemaPayload is the upstream hello-ok body, replayed verbatim to
	// every local member's handshake.
	schemaPayload []byte

	mu sync.Mutex
	// changed is broadcast on every state change.
	changed sync.Cond
	state   legState
	// sub is the open upstream session, nil while opening or redialing;
	// coreName is the owner it was dialed against. When a rebalance moves
	// the source, resume state resets (offsets name positions in per-core
	// logs and do not transfer).
	sub      *Subscriber
	coreName string
	members  []*subscriber
	scratch  []*subscriber // see snapshot
	// batches is the run loop's take of empty batches, one per member.
	batches []*frameBatch

	// Resume state, written by the run loop per transmission frame and
	// read by introspection, hence atomic. seenOffset marks a checkpoint
	// taken since the leg last joined live; against a non-durable core
	// every offset is 0 and the resume it asks for is refused, which
	// clears it.
	lastOffset atomic.Uint64
	seenOffset atomic.Bool
}

func (m *relayMgr) newLeg(key legKey, queue int) *relayLeg {
	leg := &relayLeg{mgr: m, key: key, queue: queue}
	leg.ctx, leg.cancel = context.WithCancel(context.Background())
	leg.changed.L = &leg.mu
	return leg
}

// setState is the leg's one transition function; leg.mu is held, and
// m.mu too when the leg leaves the registry's states. An edge the
// lifecycle does not have is a bug: it panics under test and is logged
// otherwise.
func (leg *relayLeg) setState(next legState) {
	if legEdges[leg.state]&(1<<next) == 0 {
		err := fmt.Errorf("server: relay leg %s/%s: illegal transition %v → %v", leg.key.source, leg.key.app, leg.state, next)
		if testing.Testing() {
			panic(err)
		}
		leg.mgr.s.lg.Error(err.Error())
	}
	leg.state = next
	leg.changed.Broadcast()
}

// retire moves the leg out of the registry's states to next (finished,
// closing or closed) and off the registry, in one step.
func (leg *relayLeg) retire(next legState) {
	m := leg.mgr
	if m.legs[leg.key] == leg {
		delete(m.legs, leg.key)
	}
	leg.setState(next)
}

// lock takes the registry lock, then the leg's, for a transition that
// may retire the leg.
func (leg *relayLeg) lock() {
	leg.mgr.mu.Lock()
	leg.mu.Lock()
}

func (leg *relayLeg) unlock() {
	leg.mu.Unlock()
	leg.mgr.mu.Unlock()
}

// attached reports whether members may attach.
func (leg *relayLeg) attached() bool {
	return leg.state == legLive || leg.state == legRedialing
}

// await blocks until the leg is closed.
func (leg *relayLeg) await() {
	leg.mu.Lock()
	for leg.state != legClosed {
		leg.changed.Wait()
	}
	leg.mu.Unlock()
}

// ensureLeg finds or creates the leg for a group. The creator performs
// the first upstream dial outside the registry lock; concurrent
// subscribers of the same group wait for it and share the leg.
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
			for k := range m.legs {
				if k.source == key.source && k.app == key.app {
					m.mu.Unlock()
					return nil, fmt.Errorf("app %q already subscribed to source %q with a different spec", key.app, key.source)
				}
			}
			leg = m.newLeg(key, queue)
			m.legs[key] = leg
			m.mu.Unlock()
			if err := leg.dialFirst(); err != nil {
				return nil, err
			}
			return leg, nil
		}
		m.mu.Unlock()
		leg.mu.Lock()
		for leg.state == legOpening {
			leg.changed.Wait()
		}
		ok := leg.attached()
		leg.mu.Unlock()
		if ok {
			return leg, nil
		}
		// The first dial failed, or the leg is already retired: it is off
		// the registry, so the next pass dials a fresh one.
	}
}

// attach adds a local member to the leg; false when the leg no longer
// takes members (it finished or is closing; the caller re-runs
// ensureLeg).
func (leg *relayLeg) attach(sub *subscriber) bool {
	leg.mu.Lock()
	defer leg.mu.Unlock()
	if !leg.attached() {
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
	leg.lock()
	for i, s2 := range leg.members {
		if s2 == sub {
			leg.members = append(leg.members[:i], leg.members[i+1:]...)
			break
		}
	}
	last := len(leg.members) == 0 && leg.attached()
	up := leg.sub
	if last {
		leg.retire(legClosing)
	}
	leg.unlock()
	if !last {
		return
	}
	leg.cancel()
	if up != nil {
		up.depart(m.s.cfg.WriteTimeout) // the run loop ends on the core's ack
	}
	leg.await()
}

// dialOpts are the options of every upstream session the leg dials.
func (leg *relayLeg) dialOpts() SubDialOpts {
	return SubDialOpts{Queue: leg.queue, RelayEdge: leg.mgr.self}
}

// dialFirst opens the leg's first upstream session and starts the run
// loop. Most rejections (unknown source, bad spec) surface immediately,
// so the local client sees the error a single-node subscribe would, but a
// transient "already subscribed" is retried briefly: the previous leg for
// this group is mid-teardown and the core has not acked its departure
// yet.
func (leg *relayLeg) dialFirst() error {
	m := leg.mgr
	deadline := time.Now().Add(m.s.cfg.HandshakeTimeout)
	var (
		sub  *Subscriber
		core federate.Node
		ok   bool
		err  error
	)
	for {
		if core, ok = m.s.ownerOf(leg.key.source); !ok {
			err = fmt.Errorf("server: no core topology to place source %q", leg.key.source)
			break
		}
		sub, err = DialSubscriber(leg.ctx, core.Addr, leg.key.app, leg.key.source, leg.key.spec, leg.dialOpts())
		if err == nil || !errors.Is(err, ErrAlreadySubscribed) || time.Now().After(deadline) ||
			sleepCtx(leg.ctx, 20*time.Millisecond) != nil {
			break
		}
	}
	var payload []byte
	if err == nil {
		payload, err = EncodeSchema(sub.Schema())
	}
	leg.lock()
	if err == nil && leg.state == legOpening {
		leg.sub, leg.coreName, leg.schemaPayload = sub, core.Name, payload
		leg.setState(legLive)
		leg.unlock()
		m.s.ctr.fedLegDials.Add(1)
		m.s.lg.Info("upstream leg opened", "source", leg.key.source, "app", leg.key.app, "core", core.Name)
		m.s.connWG.Add(1)
		go leg.run(sub)
		return nil
	}
	if leg.state == legClosing {
		err = errDraining // a shutdown began meanwhile
	}
	leg.retire(legClosed)
	leg.unlock()
	leg.cancel()
	if sub != nil {
		sub.conn.Close()
	}
	return err
}

// run is the leg's loop: relay one session until it ends, then move the
// leg on, until it is closed.
func (leg *relayLeg) run(sub *Subscriber) {
	defer leg.mgr.s.connWG.Done()
	for sub != nil {
		err := leg.relay(sub)
		sub.conn.Close() // the stream is over; no goodbye is owed
		sub = leg.next(err)
	}
}

// next moves the leg on from a session that ended with err: a closing
// leg (the core's departure ack, or the shutdown cut) closes; a plain
// goodbye (the source finished upstream) finishes every member and
// closes; anything else (a drain goodbye, an error frame, a lost
// connection, a rebalance cut) redials. It returns the reopened session,
// or nil once the leg is closed.
func (leg *relayLeg) next(err error) *Subscriber {
	m := leg.mgr
	leg.lock()
	leg.sub = nil
	switch {
	case leg.state == legClosing:
		leg.setState(legClosed)
		leg.unlock()
		return nil
	case errors.Is(err, ErrStreamEnded) && !errors.Is(err, ErrServerDraining):
		leg.retire(legFinished)
		leg.unlock()
		leg.finishMembers()
		leg.mu.Lock()
		leg.setState(legClosed)
		leg.mu.Unlock()
		return nil
	}
	leg.setState(legRedialing)
	leg.unlock()
	m.s.lg.Warn("upstream leg lost", "source", leg.key.source, "app", leg.key.app, "err", err)

	// Against a durable core the redial resumes from lastOffset+1, which
	// the core's splice fence makes gapless and duplicate-free. It rejoins
	// live when resume is impossible: a non-durable core, or a new owner
	// (offsets name positions in the old core's log; the rebalance
	// protocol quiesces publishers across the move, so nothing is lost).
	var core federate.Node
	sub, resumed, err := Resubscribe(leg.ctx, Resubscription{
		App: leg.key.app, Source: leg.key.source, Spec: leg.key.spec, Opts: leg.dialOpts(),
		Resume: leg.seenOffset.Load(), From: leg.lastOffset.Load() + 1, LiveFallback: true,
		Target: func() (string, bool) {
			core, _ = m.s.ownerOf(leg.key.source)
			return core.Addr, core.Name != leg.coreName
		},
		Delay: legRedialDelay,
	})
	leg.mu.Lock()
	if err != nil || leg.state == legClosing {
		// Only a teardown ends the redial loop. A session it opened anyway
		// leaves through the acked path before the leg closes, as the
		// live session would have.
		leg.mu.Unlock()
		if sub != nil {
			ctx, cancel := context.WithTimeout(context.Background(), m.s.cfg.WriteTimeout)
			_ = sub.Leave(ctx) // a failed leave still ends the session
			cancel()
		}
		leg.mu.Lock()
		leg.setState(legClosed)
		leg.mu.Unlock()
		return nil
	}
	leg.sub, leg.coreName = sub, core.Name
	leg.setState(legLive)
	leg.mu.Unlock()
	leg.seenOffset.Store(resumed)
	m.s.ctr.fedLegRedials.Add(1)
	if resumed {
		m.s.ctr.fedLegResumes.Add(1)
	}
	m.s.lg.Info("upstream leg re-established", "source", leg.key.source, "app", leg.key.app,
		"core", core.Name, "resume", resumed)
	return sub
}

// legRedialDelay is the leg's redial schedule: 20ms, doubling to 2s.
func legRedialDelay(attempt int) time.Duration {
	d := 20 * time.Millisecond
	for ; attempt > 0 && d < 2*time.Second; attempt-- {
		d *= 2
	}
	return min(d, 2*time.Second)
}

// relay consumes one upstream session until it ends, reconstructing each
// transmission frame byte-identically (offset included) and fanning it
// out to every local member through the refcounted frame free list.
// Transmission frames go out in runs: the frames already whole in the
// read buffer (the frameBuffered guard readSource uses, bounded by the
// flush batch) go to each member as one batch, and a run never waits for
// bytes that have not arrived. Any other frame, and the end of the
// stream, first flushes the run, so members see the upstream order.
func (leg *relayLeg) relay(sub *Subscriber) error {
	m := leg.mgr
	runMax := m.s.flushBatch()
	var (
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
		kind, buf, err := sub.frame()
		if kind != FrameTransmission {
			run = leg.fanout(run)
			if err != nil {
				return err
			}
			if kind == FrameQoS {
				// The core degraded (or restored) the group's effective
				// quality; members heartbeat on their own writers' idle
				// timers.
				leg.forwardQoS(sub.QoS())
			}
			continue
		}
		leg.lastOffset.Store(binary.LittleEndian.Uint64(buf))
		leg.seenOffset.Store(true)
		m.s.ctr.fedRelayFrames.Add(1)
		fr := stash.get(runMax-len(run), frameHeaderLen+len(buf))
		fr.buf = endFrame(append(beginFrame(fr.buf, kind), buf...))
		if m.lat != nil && nframes%relaySampleEvery == 0 {
			if l, _, err := wire.DecodeTransmissionInto(&scratch, sub.Schema(), labels[:0], buf[8:]); err == nil {
				labels = l
				fr.ts = scratch.TS.UnixNano()
			}
		}
		nframes++
		run = append(run, fr)
		if len(run) < runMax && frameBuffered(sub.br) {
			continue // the next frame is already here: extend the run
		}
		run = leg.fanout(run)
	}
}

// relaySampleEvery sets the relay-latency sampling period: one in this
// many relayed frames is decoded for its source timestamp.
const relaySampleEvery = 8

// fanout hands a run of reconstructed frames to every local member with
// the core sink's discipline: each frame was encoded once into a
// recycled refcounted frame, is retained per member, and each member
// gets the whole run in one queue hand-off. It returns run emptied.
func (leg *relayLeg) fanout(run []*frame) []*frame {
	if len(run) == 0 {
		return run
	}
	members := leg.snapshot()
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

// snapshot copies the member list into the run loop's scratch, so sends
// run outside the lock and a slow member never holds up a detach.
func (leg *relayLeg) snapshot() []*subscriber {
	leg.mu.Lock()
	defer leg.mu.Unlock()
	leg.scratch = append(leg.scratch[:0], leg.members...)
	return leg.scratch
}

// forwardQoS mirrors an upstream QoS announcement to every member.
func (leg *relayLeg) forwardQoS(scale float64) {
	for _, sub := range leg.snapshot() {
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

// shutdown tears down every leg during server drain: upstream conns
// close (the cores clean their sessions on disconnect), run loops
// exit, and every local member's stream finishes with the drain-tagged
// goodbye the writer emits while the server drains.
func (m *relayMgr) shutdown() {
	m.mu.Lock()
	m.closed = true
	legs := make([]*relayLeg, 0, len(m.legs))
	for _, leg := range m.legs {
		leg.mu.Lock()
		leg.retire(legClosing)
		if leg.sub != nil {
			leg.sub.conn.Close()
		}
		leg.mu.Unlock()
		leg.cancel()
		legs = append(legs, leg)
	}
	m.mu.Unlock()
	for _, leg := range legs {
		leg.await()
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
	if h.RelayEdge != "" {
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
	// Relayed deliveries count in the relay view, not a local group's.
	sub.m.Group = s.fed.lat
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
		// The leg finished or began closing between lookup and attach;
		// ensureLeg dials a fresh one.
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
		up := leg.sub
		stale := up != nil && leg.coreName != owner.Name
		leg.mu.Unlock()
		if stale {
			// Cutting the connection, with no goodbye that could be
			// mistaken for the source finishing, sends the run loop
			// through the redial, which re-resolves the owner and
			// rejoins there.
			up.conn.Close()
			moved++
		}
	}
	s.lg.Info("peers updated", "cores", len(cores), "legs_moved", moved)
	return nil
}
