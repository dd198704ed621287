package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gasf/internal/tuple"
)

// runConfig is one pass of a workload through a freshly started system.
type runConfig struct {
	in *inputs
	// rec, when set, makes the pass a traced one: spans are recorded and
	// the system's telemetry sampling is widened.
	rec *recorder
	// setups is how many times the system is started, its sessions
	// established and everything torn down again before the rounds, for
	// the set-up time; the median is reported.
	setups  int
	tmpRoot string
}

// runResult holds one pass's raw measurements.
type runResult struct {
	setupS      []float64 // one per set-up
	handshakeMs []float64 // every OpenSource / Subscribe call of the last set-up

	// Closed-loop phase: wall and process CPU time of each round, the
	// allocations of all of them.
	satTuples           int // per round, all sources
	satWall, satCPU     []time.Duration
	satMallocs, satHeap uint64

	// Open-loop phase.
	latMs        [][]float64 // every live delivery, receive minus due, by window of the due time
	hopMs        []float64   // federated: edge receive minus core-direct receive
	lagMs        []float64   // per tick: how late the generator itself started it
	drainMs      float64     // last due instant to last live delivery
	publishNs    float64     // time inside the open-loop PublishBatch calls
	pacedTuples  int
	heapLiveMB   float64
	gcCycles     uint32
	gcPauseMs    float64
	replayed     int     // durable: records re-read from the log by the resumed sessions
	replaySecond float64 // ... and how long resume-to-splice took

	attempted, failed int
	failures          []string // first few, for the report
	snap              snapshot
}

// runState is shared by the generators and receivers of one round.
type runState struct {
	base       time.Time
	sz         sizes
	pacedStart atomic.Int64   // ns since base; set before the first open-loop publish
	satWG      sync.WaitGroup // every session has what the closed-loop tuples release
	liveWG     sync.WaitGroup // ... and what the open-loop tuples release
}

func (st *runState) now() int64 { return int64(time.Since(st.base)) }

// receiver drains one session and checks it against its expectation.
type receiver struct {
	name    string
	source  string  // the source it subscribed to
	plan    subPlan // ... and under which plan
	sub     subscription
	exp     *expectation
	offsets bool // check durable log offsets
	// inSat / inLive say whether the session still takes part in
	// detecting the end of the closed-loop round / the open-loop phase.
	inSat, inLive bool
	at            []int64 // receive instant per delivery (hop sessions only)

	got, mismatched, extra int
	digest                 uint64
	latMs                  [][]float64 // by window of the due time
	splicedAt              int64       // when the last replayed record arrived
	err                    error
	done                   chan struct{}
}

func (r *receiver) run(st *runState) {
	defer close(r.done)
	x := r.exp
	mark := func(end bool) {
		if r.inSat && (end || r.got >= x.sat) {
			r.inSat = false
			st.satWG.Done()
		}
		if r.inLive && (end || r.got >= x.live) {
			r.inLive = false
			st.liveWG.Done()
		}
	}
	// A session that fails early must not wedge the phase barriers.
	defer mark(true)
	ctx := context.Background() // no deadline: the connection fast path, as a long-lived consumer runs
	var d delivery
	mark(false)
	for x.stop == 0 || r.got < x.stop {
		if err := r.sub.RecvInto(ctx, &d); err != nil {
			if !errors.Is(err, errStreamEnded) {
				r.err = err
			}
			break
		}
		now := st.now()
		k := r.got
		r.got++
		if k >= len(x.seq) {
			r.extra++
			continue
		}
		if int32(d.Tuple.Seq) != x.seq[k] || (r.offsets && d.Offset != x.off[k]) {
			r.mismatched++
		}
		r.digest = fold(r.digest, d.Tuple, d.Destinations)
		if r.at != nil {
			r.at[k] = now
		}
		switch {
		case k < x.replay:
			if k == x.replay-1 {
				r.splicedAt = now
			}
		case k >= x.sat && k < x.live:
			// Latency runs from the due time of the tuple whose Step
			// released this delivery: it includes generator stalls and
			// queue wait, and excludes the candidate-set hold the filter
			// semantics impose. A resumed session counts only tuples due
			// after its splice — the catch-up is reported as replay rate.
			if rel := int(x.rel[k]); rel >= st.sz.satN {
				sinceStart := int64((rel-st.sz.satN)/st.sz.batch) * int64(st.sz.period)
				if due := st.pacedStart.Load() + sinceStart; due >= r.splicedAt {
					w := int(sinceStart / int64(latencyWindow))
					r.latMs[w] = append(r.latMs[w], float64(now-due)/1e6)
				}
			}
		}
		mark(false)
	}
}

// want is how many deliveries the session must receive.
func (r *receiver) want() int {
	if r.exp.stop > 0 {
		return r.exp.stop
	}
	return len(r.exp.seq)
}

// established is a started system with every session of a workload open.
type established struct {
	s       *sut
	sources []source
	recvs   []*receiver
}

// establish starts the system and opens every session, in plan order.
// The sessions of the last round expect the longer stream that goes on
// into the open-loop phase. It returns how long that took and the
// duration of each handshake.
func establish(cfg runConfig, parent int, last bool) (*established, float64, []float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in, rec := cfg.in, cfg.rec
	id := rec.start(parent, "setup")
	defer rec.end(id)
	start := time.Now()
	var handshakes []float64
	timed := func(name string, fn func() error) error {
		sid := rec.start(id, name)
		t0 := time.Now()
		err := fn()
		handshakes = append(handshakes, float64(time.Since(t0))/1e6)
		rec.end(sid)
		return err
	}
	sid := rec.start(id, "start_nodes")
	s, err := startSUT(in.w.kind, rec != nil, cfg.tmpRoot)
	rec.end(sid)
	if err != nil {
		return nil, 0, nil, err
	}
	est := &established{s: s}
	for _, src := range in.sources {
		var h source
		if err := timed("open_source", func() (err error) {
			h, err = s.pub.OpenSource(ctx, src.name, src.schema)
			return err
		}); err != nil {
			est.close()
			return nil, 0, nil, err
		}
		est.sources = append(est.sources, h)
		exps := src.round
		if last {
			exps = src.first
		}
		for i, p := range src.subs {
			for n := 0; n < max(1, p.sessions); n++ {
				var sub subscription
				if err := timed("subscribe", func() (err error) {
					sub, err = s.subscribe(ctx, p, src.name, false)
					return err
				}); err != nil {
					est.close()
					return nil, 0, nil, err
				}
				est.recvs = append(est.recvs, &receiver{
					name:   fmt.Sprintf("%s/%s#%d", src.name, p.app, n),
					source: src.name, plan: p,
					sub: sub, exp: exps[i],
					offsets: in.w.kind == kindDurable,
					inSat:   true, inLive: last && in.w.kind != kindDurable,
					done: make(chan struct{}),
				})
			}
		}
	}
	return est, time.Since(start).Seconds(), handshakes, nil
}

// close tears everything down: sessions leave, sources finish, nodes
// stop. Errors are returned joined; a torn-down stream's are expected to
// be nil.
func (e *established) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var errs []error
	for _, r := range e.recvs {
		errs = append(errs, r.sub.Close(ctx))
	}
	for _, h := range e.sources {
		errs = append(errs, h.Finish(ctx))
	}
	errs = append(errs, e.s.stop(ctx))
	return errors.Join(errs...)
}

// sleepUntil blocks for d in the kernel. time.Sleep parks on the
// runtime's network poller, whose timeout is whole milliseconds: an idle
// process oversleeps a sub-millisecond wait by about one, which would
// put the generator's own lateness into every latency sample.
func sleepUntil(d int64) {
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the wait; the caller re-reads the clock
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is the state one runWorkload call shares across its rounds.
type pass struct {
	cfg  runConfig
	res  *runResult
	root int // the pass's span

	pubMu       sync.Mutex
	pubErrs     int
	firstPubErr error
	publishes   int
}

func (p *pass) pubFailed(err error) {
	p.pubMu.Lock()
	p.pubErrs++
	if p.firstPubErr == nil {
		p.firstPubErr = err
	}
	p.pubMu.Unlock()
}

func (p *pass) publish(parent int, h source, batch []*tuple.Tuple) {
	id := p.cfg.rec.start(parent, "publish")
	if err := h.PublishBatch(context.Background(), batch); err != nil {
		p.pubFailed(err)
	}
	p.cfg.rec.end(id)
}

// fail counts n failed operations and keeps the first few descriptions.
func (p *pass) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	p.res.failed += n
	if len(p.res.failures) < 8 {
		p.res.failures = append(p.res.failures, fmt.Sprintf(format, args...))
	}
}

// closedLoop publishes one round's tuples under backpressure and returns
// when every session has the last delivery they release. The round's
// wall time, CPU time and allocations are added to the result.
func (p *pass) closedLoop(est *established, st *runState, last bool) {
	in, rec, res := p.cfg.in, p.cfg.rec, p.res
	id := rec.start(p.root, "sat")
	defer rec.end(id)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	var gen sync.WaitGroup
	for i, src := range in.sources {
		gen.Add(1)
		go func(h source, tuples []*tuple.Tuple) {
			defer gen.Done()
			for off := 0; off < len(tuples); off += satBatch {
				p.publish(id, h, tuples[off:off+satBatch])
			}
			// The barrier orders every closed-loop tuple ahead of the
			// durable workload's membership changes.
			if last {
				if err := h.Sync(context.Background()); err != nil {
					p.pubFailed(err)
				}
			}
		}(est.sources[i], src.tuples[:st.sz.satN])
	}
	gen.Wait()
	st.satWG.Wait()
	res.satWall, res.satCPU = append(res.satWall, time.Since(t0)), append(res.satCPU, cpuTime()-cpu0)
	runtime.ReadMemStats(&m1)
	res.satMallocs += m1.Mallocs - m0.Mallocs
	res.satHeap += m1.TotalAlloc - m0.TotalAlloc
	p.publishes += st.sz.satN / satBatch * len(in.sources)
}

// finish ends every source — the engines' tails are flushed; those
// deliveries are checked but carry no latency sample — and waits for
// every session's stream to end.
func (p *pass) finish(est *established) error {
	id := p.cfg.rec.start(p.root, "finish")
	defer p.cfg.rec.end(id)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, h := range est.sources {
		if err := h.Finish(ctx); err != nil {
			p.pubFailed(err)
		}
	}
	for _, r := range est.recvs {
		select {
		case <-r.done:
		case <-ctx.Done():
			return fmt.Errorf("%s: stream did not end after Finish", r.name)
		}
	}
	return nil
}

// check compares sessions with the reference, and the system's own
// counters with the reference's.
func (p *pass) check(recvs []*receiver, snap snapshot, last bool) {
	for _, r := range recvs {
		x := r.exp
		want, missing := r.want(), max(0, r.want()-r.got)
		p.res.attempted += want
		if r.err != nil {
			p.fail(1, "%s: receive error: %v", r.name, r.err)
		}
		p.fail(missing, "%s: %d of %d deliveries missing", r.name, missing, want)
		p.fail(r.extra, "%s: %d deliveries beyond the reference", r.name, r.extra)
		p.fail(r.mismatched, "%s: %d deliveries differ from the reference in seq or offset", r.name, r.mismatched)
		if missing == 0 && r.extra == 0 && r.mismatched == 0 && r.digest != x.digest {
			p.fail(1, "%s: stream digest %016x differs from the reference %016x", r.name, r.digest, x.digest)
		}
	}
	var wantTr, wantIn uint64
	for _, src := range p.cfg.in.sources {
		if last {
			wantTr, wantIn = wantTr+uint64(src.transmissions), wantIn+uint64(len(src.tuples))
		} else {
			wantTr, wantIn = wantTr+uint64(src.roundTransmissions), wantIn+uint64(p.cfg.in.sz.satN)
		}
	}
	if snap.transmissions != wantTr || snap.tuplesIn != wantIn {
		p.fail(1, "system counted %d transmissions of %d tuples, the reference %d of %d",
			snap.transmissions, snap.tuplesIn, wantTr, wantIn)
	}
}

// runWorkload drives one pass: the set-ups, then the closed-loop rounds —
// each a freshly started system fed the same tuples, finished, compared
// with the reference and torn down — of which the last goes on, without
// Finish, into the durable workload's leave-and-resume and the open-loop
// phase.
func runWorkload(cfg runConfig) (*runResult, error) {
	in, rec, sz := cfg.in, cfg.rec, cfg.in.sz
	res := &runResult{satTuples: sz.satN * len(in.sources)}
	root := rec.start(0, "run")
	defer rec.end(root)
	p := &pass{cfg: cfg, res: res, root: root}

	for i := 0; i < cfg.setups; i++ {
		est, took, _, err := establish(cfg, root, false)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		res.setupS = append(res.setupS, took)
		if err := est.close(); err != nil {
			return nil, fmt.Errorf("tearing down set-up %d: %w", i+1, err)
		}
	}

	var (
		est    *established
		st     *runState
		m0, ms runtime.MemStats
	)
	defer func() {
		if est != nil {
			est.close()
		}
	}()
	hopSessions := in.w.kind == kindFederated
	windows := int((time.Duration(sz.ticks)*sz.period + latencyWindow - 1) / latencyWindow)
	for round := 0; round < sz.rounds; round++ {
		last := round == sz.rounds-1
		// Every round starts from a collected heap: the earlier rounds'
		// garbage is not its cost. Before the last one this is also the
		// live heap without the system: inputs and reference only.
		runtime.GC()
		if last {
			runtime.ReadMemStats(&m0)
		}
		var err error
		if est, _, res.handshakeMs, err = establish(cfg, root, last); err != nil {
			return nil, fmt.Errorf("round %d: set-up: %w", round+1, err)
		}
		st = &runState{base: time.Now(), sz: sz}
		for _, r := range est.recvs {
			if last {
				if hopSessions {
					r.at = make([]int64, len(r.exp.seq))
				}
				r.latMs = make([][]float64, windows)
			}
			st.satWG.Add(1)
			if r.inLive {
				st.liveWG.Add(1)
			}
		}
		for _, r := range est.recvs {
			go r.run(st)
		}
		if last {
			runtime.ReadMemStats(&ms)
		}
		p.closedLoop(est, st, last)
		if last {
			break
		}
		if err := p.finish(est); err != nil {
			return nil, fmt.Errorf("round %d: %w", round+1, err)
		}
		p.check(est.recvs, est.s.snapshot(), false)
		err = est.close()
		est = nil
		if err != nil {
			return nil, fmt.Errorf("round %d: tearing down: %w", round+1, err)
		}
	}
	ctx := context.Background()

	// Durable workload: every subscriber leaves at this tuple boundary
	// (each once it has seen the earlier leavers' flushes, so what it
	// received is exact) and re-subscribes from offset 0. The publisher
	// is only held for these handshakes; the replays then run beside the
	// open-loop appends.
	var firstSessions []*receiver
	var resumeAt int64
	if in.w.kind == kindDurable {
		id := rec.start(root, "leave_resume")
		hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		for _, r := range est.recvs {
			<-r.done
			if err := r.sub.Close(hctx); err != nil {
				cancel()
				return nil, fmt.Errorf("%s: leaving: %w", r.name, err)
			}
		}
		firstSessions = est.recvs
		resumeAt = st.now()
		// One source, one session per application: receiver i is plan i.
		resumed := make([]*receiver, len(est.recvs))
		for i, old := range est.recvs {
			sub, err := est.s.subscribe(hctx, old.plan, old.source, true)
			if err != nil {
				cancel()
				return nil, fmt.Errorf("%s: resuming: %w", old.name, err)
			}
			resumed[i] = &receiver{
				name: old.name + "+resumed", source: old.source, plan: old.plan,
				sub: sub, exp: in.sources[0].resumed[i],
				offsets: true, inLive: true, done: make(chan struct{}),
				latMs: make([][]float64, windows),
			}
			st.liveWG.Add(1)
			go resumed[i].run(st)
		}
		cancel()
		est.recvs = resumed
		rec.end(id)
	}

	// Open loop: sz.batch tuples per source every sz.period, whatever the
	// system does.
	pacedID := rec.start(root, "paced")
	st.pacedStart.Store(st.now() + int64(20*time.Millisecond))
	lags := make([][]float64, len(in.sources))
	var pubNs atomic.Int64
	var gen sync.WaitGroup
	for i, src := range in.sources {
		gen.Add(1)
		go func(i int, h source, tuples []*tuple.Tuple) {
			defer gen.Done()
			lag := make([]float64, 0, sz.ticks)
			var inPublish, free int64 // free: when the previous publish call returned
			for k := 0; k < sz.ticks; k++ {
				due := st.pacedStart.Load() + int64(k)*int64(sz.period)
				now := st.now()
				if now < due {
					sleepUntil(due - now)
					now = st.now()
				}
				// The generator's own lateness: a tick that starts late
				// because the previous publish was still blocked is the
				// system's backpressure, which the latency samples carry
				// (they count from the due time), not the generator's.
				lag = append(lag, float64(now-max(due, free))/1e6)
				p.publish(pacedID, h, tuples[k*sz.batch:(k+1)*sz.batch])
				free = st.now()
				inPublish += free - now
			}
			lags[i] = lag
			pubNs.Add(inPublish)
		}(i, est.sources[i], src.tuples[sz.satN:])
		p.publishes += sz.ticks
	}
	gen.Wait()
	lastDue := st.pacedStart.Load() + int64(sz.ticks-1)*int64(sz.period)
	st.liveWG.Wait()
	res.drainMs = float64(st.now()-lastDue) / 1e6
	rec.end(pacedID)
	res.pacedTuples = sz.batch * sz.ticks * len(in.sources)
	res.publishNs = float64(pubNs.Load())
	for _, lag := range lags {
		res.lagMs = append(res.lagMs, lag...)
	}

	// Live heap with every session still open, less what the inputs held
	// before the system started; collector work over the last round and
	// the open loop.
	var m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapLiveMB = (float64(m1.HeapInuse) - float64(m0.HeapInuse)) / (1 << 20)
	res.gcCycles = m1.NumGC - ms.NumGC - 1 // less the forced cycle just above
	res.gcPauseMs = float64(m1.PauseTotalNs-ms.PauseTotalNs) / 1e6

	// The edge tier is read now: legs tear down with their last member,
	// which Finish is about to end.
	legs, localSubs := est.s.edgeTier()

	if err := p.finish(est); err != nil {
		return nil, err
	}
	res.snap = est.s.snapshot()
	res.snap.legs, res.snap.localSubs = legs, localSubs

	// Verdict.
	res.attempted += p.publishes
	p.fail(p.pubErrs, "%d publish/sync/finish calls failed, first: %v", p.pubErrs, p.firstPubErr)
	sessions := append(firstSessions, est.recvs...)
	p.check(sessions, res.snap, true)
	res.latMs = make([][]float64, windows)
	var splicedLast int64
	for _, r := range sessions {
		for w, lat := range r.latMs {
			res.latMs[w] = append(res.latMs[w], lat...)
		}
		if r.exp.replay > 0 {
			res.replayed += r.exp.replay
			splicedLast = max(splicedLast, r.splicedAt)
		}
	}
	if res.replayed > 0 && splicedLast > resumeAt {
		res.replaySecond = float64(splicedLast-resumeAt) / 1e9
	}
	if hopSessions {
		res.hopMs = relayHops(est.recvs)
	}

	err := est.close()
	est = nil
	if err != nil {
		return nil, fmt.Errorf("tearing down: %w", err)
	}
	return res, nil
}

// relayHops pairs every edge-session delivery of the open-loop phase
// with the control session's delivery of the same tuple — both clocks
// are this process's — and returns the differences in milliseconds.
func relayHops(recvs []*receiver) []float64 {
	var ctl *receiver
	for _, r := range recvs {
		if r.plan.direct {
			ctl = r
		}
	}
	if ctl == nil {
		return nil
	}
	var hops []float64
	for _, r := range recvs {
		if r.plan.direct {
			continue
		}
		x := r.exp
		for k := x.sat; k < x.live && k < r.got && k < ctl.got; k++ {
			if k < len(ctl.exp.seq) && ctl.exp.seq[k] == x.seq[k] {
				hops = append(hops, float64(r.at[k]-ctl.at[k])/1e6)
			}
		}
	}
	return hops
}
