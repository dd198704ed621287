package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/quality"
	"gasf/internal/shard"
	"gasf/internal/trace"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// item is the fake transport's queued item: the released tuple's sequence
// number, how many members shared it, and its log offset when durable.
type item struct {
	seq, fanout int
	off         uint64
}

// fakePeer is the transport end of a test member.
type fakePeer struct {
	mu     sync.Mutex
	scales []float64
}

func (p *fakePeer) QoSApplied(scale float64) {
	p.mu.Lock()
	p.scales = append(p.scales, scale)
	p.mu.Unlock()
}

// passAll closes a singleton set per tuple: every tuple is released to
// every member, as soon as the next one arrives (or the source finishes).
var passAll = quality.MustParse("DC1(v, 0.5, 0)")

var schema = tuple.MustSchema("v")

// harness is a core over the real in-process shard runtime with the
// smallest possible adapter: the sink routes, logs when durable, and
// sends.
type harness struct {
	t *testing.T
	c *Core[item]
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{t: t}
	cfg.Engine = core.Options{ShardCount: 1}
	c, err := New[item](cfg, func(batch []shard.Out) {
		for i := range batch {
			o := &batch[i]
			src := h.c.Route(o.Source, o.Tr.Destinations)
			if src == nil || len(src.Targets) == 0 {
				continue
			}
			it := item{seq: o.Tr.Tuple.Seq, fanout: len(src.Targets)}
			if h.c.Log() != nil {
				payload, err := src.Enc.AppendTransmission(src.Scratch[:0], src.Epoch, o.Tr.Tuple, src.Labels)
				if err != nil {
					t.Error(err)
					continue
				}
				src.Scratch = payload
				if it.off, err = h.c.AppendLog(o.Source, payload); err != nil {
					t.Error(err)
				}
			}
			for _, m := range src.Targets {
				m.Send(it, 1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	t.Cleanup(func() { h.close(context.Background()) })
	return h
}

// close finishes the open sources the way an adapter's hook would.
func (h *harness) close(ctx context.Context) error {
	return h.c.Close(ctx, func(open []*Source[item]) error {
		var errs []error
		for _, src := range open {
			_, err := h.c.FinishSource(src, false)
			errs = append(errs, err)
		}
		return errors.Join(errs...)
	}, nil)
}

func (h *harness) open(name string) *Source[item] {
	h.t.Helper()
	src := &Source[item]{Name: name, Schema: schema}
	if err := h.c.OpenSource(src); err != nil {
		h.t.Fatal(err)
	}
	return src
}

func (h *harness) join(ctx context.Context, app, source string, queue int) (*Member[item], error) {
	m := h.c.NewMember(app, source, queue, &fakePeer{})
	return m, h.c.Join(ctx, m, passAll)
}

func (h *harness) mustJoin(app, source string, queue int) *Member[item] {
	h.t.Helper()
	m, err := h.join(context.Background(), app, source, queue)
	if err != nil {
		h.t.Fatal(err)
	}
	return m
}

// publish submits n pass-all tuples starting at seq start.
func (h *harness) publish(source string, start, n int) error {
	batch := make([]*tuple.Tuple, n)
	for i := range batch {
		seq := start + i
		batch[i] = tuple.MustNew(schema, seq, trace.Epoch.Add(time.Duration(seq+1)*time.Millisecond), []float64{float64(seq)})
	}
	return h.c.Runtime().SubmitBatch(source, batch)
}

// registered reports whether app is in source's registry entry.
func (h *harness) registered(source, app string) bool {
	found := false
	h.c.Inspect(func(src *Source[item], members map[string]*Member[item]) {
		if src.Name == source && members[app] != nil {
			found = true
		}
	})
	return found
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestJoinValidationOrder pins the one join: a request wrong in several
// ways is rejected for the first reason in the order source → attributes
// → duplicate → group size → resume head, with the typed sentinels, on
// whatever transport carries it.
func TestJoinValidationOrder(t *testing.T) {
	h := newHarness(t, Config{DataDir: t.TempDir()})
	h.open("s")
	h.mustJoin("taken", "s", 0)
	h.open("full")
	for i := 0; i < wire.MaxDestinations; i++ {
		h.mustJoin(fmt.Sprintf("m%03d", i), "full", 1)
	}
	badAttr := quality.MustParse("DC1(nope, 0.5, 0)")
	const beyond = 1 << 40 // far past any log head

	cases := []struct {
		name, app, source string
		spec              quality.Spec
		resumeFrom        uint64
		is                error  // sentinel the error must wrap, if any
		not               error  // sentinel it must not wrap
		contains          string // prose pinned only where no sentinel exists
	}{
		{name: "unknown source beats attribute, resume", app: "a", source: "ghost", spec: badAttr, resumeFrom: beyond,
			not: ErrResumeUnavailable, contains: `unknown source "ghost"`},
		{name: "attribute beats duplicate, resume", app: "taken", source: "s", spec: badAttr, resumeFrom: beyond,
			not: ErrAlreadySubscribed, contains: `no attribute "nope"`},
		{name: "duplicate beats group size", app: "m000", source: "full", spec: passAll, resumeFrom: beyond,
			is: ErrAlreadySubscribed},
		{name: "duplicate beats resume", app: "taken", source: "s", spec: passAll, resumeFrom: beyond,
			is: ErrAlreadySubscribed, not: ErrResumeUnavailable},
		{name: "group size beats resume", app: "one-more", source: "full", spec: passAll, resumeFrom: beyond,
			not: ErrResumeUnavailable, contains: "wire limit"},
		{name: "resume beyond the head", app: "a", source: "s", spec: passAll, resumeFrom: beyond,
			is: ErrResumeUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := h.c.NewMember(tc.app, tc.source, 0, &fakePeer{})
			m.Resume, m.ResumeFrom = true, tc.resumeFrom
			err := h.c.Join(context.Background(), m, tc.spec)
			if err == nil {
				t.Fatal("join succeeded")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error %q does not wrap %q", err, tc.is)
			}
			if tc.not != nil && errors.Is(err, tc.not) {
				t.Errorf("error %q wraps %q: a later check ran first", err, tc.not)
			}
			if !strings.Contains(err.Error(), tc.contains) {
				t.Errorf("error %q, want it to mention %q", err, tc.contains)
			}
			// The sentinel message leads the text: it is the wire tag.
			if tc.is != nil && !strings.HasPrefix(err.Error(), tc.is.Error()+": ") {
				t.Errorf("error %q does not start with the tag %q", err, tc.is)
			}
		})
	}

	// A resume within the log is served, fence captured at the head.
	if err := h.publish("s", 0, 6); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "five releases to reach the log", func() bool { return h.c.Log().NextOffset("s") == 5 })
	m := h.c.NewMember("late", "s", 0, &fakePeer{})
	m.Resume, m.ResumeFrom = true, 2
	if err := h.c.Join(context.Background(), m, passAll); err != nil {
		t.Fatalf("resume within the log: %v", err)
	}
	if m.SpliceTo != 5 {
		t.Errorf("fence %d, want the log head 5", m.SpliceTo)
	}

	// Without a log every resume is unavailable, whatever else is wrong.
	plain := newHarness(t, Config{})
	m = plain.c.NewMember("a", "ghost", 0, &fakePeer{})
	m.Resume = true
	if err := plain.c.Join(context.Background(), m, passAll); !errors.Is(err, ErrResumeUnavailable) {
		t.Errorf("resume without a log: %v, want ErrResumeUnavailable", err)
	}
}

// TestSuccessorSeesNothingBelowItsFence: a member is routable from the
// tuple boundary its filter joined at, not from its registration. A
// session reusing an app name registers while the worker may still be
// releasing outputs the group owed its predecessor; those must not reach
// it — for a resuming member they would arrive twice, live below the
// fence and again in the replay of [ResumeFrom, SpliceTo).
func TestSuccessorSeesNothingBelowItsFence(t *testing.T) {
	h := newHarness(t, Config{DataDir: t.TempDir()})
	h.open("s")
	h.mustJoin("keeper", "s", 1<<16)
	next := 0
	for i := 0; i < 100; i++ {
		first := h.mustJoin("res", "s", 1<<10)
		if err := h.publish("s", next, 2); err != nil {
			t.Fatal(err)
		}
		<-first.Queue() // one released, one held back: the group owes it to "res"
		if err := h.c.Leave(context.Background(), first); err != nil {
			t.Fatal(err)
		}
		// The owed output is released when the worker reaches these; the
		// successor registers while they sit in the ring.
		if err := h.publish("s", next+2, 30); err != nil {
			t.Fatal(err)
		}
		next += 32
		second := h.c.NewMember("res", "s", 1<<10, &fakePeer{})
		second.Resume = true
		if err := h.c.Join(context.Background(), second, passAll); err != nil {
			t.Fatal(err)
		}
		if err := h.c.Leave(context.Background(), second); err != nil {
			t.Fatal(err)
		}
		for len(second.Queue()) > 0 {
			if it := <-second.Queue(); it.off < second.SpliceTo {
				t.Fatalf("round %d: live delivery at offset %d below the fence %d", i, it.off, second.SpliceTo)
			}
		}
	}
}

// TestLeaveRacesSourceFinish: a member leaving while its source finishes
// must settle both ways — no error, no hang, the entry gone, the stream
// marked ended or departed.
func TestLeaveRacesSourceFinish(t *testing.T) {
	h := newHarness(t, Config{})
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("s%d", i)
		src := h.open(name)
		m := h.mustJoin("a", name, 64)
		other := h.mustJoin("b", name, 64)
		if err := h.publish(name, 0, 8); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := h.c.Leave(context.Background(), m); err != nil {
				t.Errorf("leave: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := h.c.FinishSource(src, true); err != nil {
				t.Errorf("finish: %v", err)
			}
		}()
		wg.Wait()
		if !closed(m.Done()) || !closed(other.Fin()) {
			t.Fatal("leaver not departed, or stayer's stream not ended")
		}
		if h.registered(name, "a") || h.registered(name, "b") {
			t.Fatal("registry entry survived leave + finish")
		}
		// Idempotent: a second leave of either returns at once.
		if err := h.c.Leave(context.Background(), m); err != nil {
			t.Errorf("second leave: %v", err)
		}
		if err := h.c.Leave(context.Background(), other); err != nil {
			t.Errorf("leave after finish: %v", err)
		}
	}
}

// TestDropEvictionFiresOnce: past EvictAfterDrops the member is evicted
// exactly once — reason latched before Done closes, entry detached off
// the worker — however many more deliveries the worker drops on it.
func TestDropEvictionFiresOnce(t *testing.T) {
	h := newHarness(t, Config{Policy: Drop, EvictAfterDrops: 3})
	h.open("s")
	slow := h.mustJoin("slow", "s", 1)
	fast := h.mustJoin("fast", "s", 256)
	if err := h.publish("s", 0, 100); err != nil {
		t.Fatal(err)
	}
	<-slow.Done()
	if reason := slow.EvictReason(); !strings.Contains(reason, "dropped (limit 3)") {
		t.Errorf("eviction reason %q", reason)
	}
	waitFor(t, "the evicted entry to leave the registry", func() bool { return !h.registered("s", "slow") })
	if err := h.publish("s", 100, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.FinishSource(h.c.sources["s"], false); err != nil {
		t.Fatal(err)
	}
	if got := h.c.Stats().Evictions; got != 1 {
		t.Errorf("%d evictions, want 1", got)
	}
	if fast.Departed() || fast.EvictReason() != "" {
		t.Error("the prompt member was disturbed")
	}
	// The fast member saw every tuple; after the eviction it was alone.
	var n, last int
	for len(fast.Queue()) > 0 {
		it := <-fast.Queue()
		n, last = n+1, it.fanout
	}
	if n != 200 || last != 1 {
		t.Errorf("fast member got %d deliveries (want 200), last fan-out %d (want 1)", n, last)
	}
	if d := slow.Dropped(); d < 3 || h.c.Stats().Drops != d {
		t.Errorf("slow member dropped %d, core counted %d", d, h.c.Stats().Drops)
	}
}

// TestEvictRacesClose: evictions firing while the core closes must not
// panic, hang or double-detach.
func TestEvictRacesClose(t *testing.T) {
	for i := 0; i < 20; i++ {
		h := newHarness(t, Config{Policy: Drop, EvictAfterDrops: 2})
		h.open("s")
		var members []*Member[item]
		for j := 0; j < 8; j++ {
			members = append(members, h.mustJoin(fmt.Sprintf("m%d", j), "s", 1))
		}
		// The feeder stops before its source is finished (the runtime's
		// contract, which both transports keep); the evictions it caused
		// are still detaching when Close takes the registry apart.
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for k := 0; !closed(stop); k++ {
				if err := h.publish("s", k*16, 16); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		time.Sleep(time.Duration(i%4) * time.Millisecond)
		err := h.c.Close(context.Background(), func(open []*Source[item]) error {
			close(stop)
			<-done
			_, err := h.c.FinishSource(open[0], false)
			return err
		}, nil)
		if err != nil {
			t.Fatalf("close: %v", err)
		}
		for _, m := range members {
			if !m.Departed() && !closed(m.Fin()) {
				t.Fatal("member neither departed nor ended after Close")
			}
		}
		if ev := h.c.Stats().Evictions; ev > uint64(len(members)) {
			t.Fatalf("%d evictions for %d members", ev, len(members))
		}
	}
}

// TestCancelledJoinLeavesNoGhost: a join whose context is cancelled while
// its AddFilter waits behind a stalled worker returns the context error,
// keeps the app name taken until the retraction behind the AddFilter has
// run, and leaves no filter in the engine.
func TestCancelledJoinLeavesNoGhost(t *testing.T) {
	h := newHarness(t, Config{Policy: Block})
	h.open("s")
	// Park the worker: a blocking member with a one-slot queue and no
	// consumer, and more releases than the slot holds.
	stuck := h.mustJoin("stuck", "s", 1)
	if err := h.publish("s", 0, 4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the worker to fill the queue", func() bool { return len(stuck.Queue()) == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	joined := make(chan error, 1)
	go func() {
		_, err := h.join(ctx, "ghost", "s", 8)
		joined <- err
	}()
	waitFor(t, "the join to register", func() bool { return h.registered("s", "ghost") })
	cancel()
	if err := <-joined; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join: %v, want context.Canceled", err)
	}
	// The AddFilter may still run: until its retraction has, the name is
	// held, so a racing rejoin cannot double-register the filter.
	if _, err := h.join(context.Background(), "ghost", "s", 8); !errors.Is(err, ErrAlreadySubscribed) {
		t.Fatalf("rejoin while the retraction is pending: %v, want ErrAlreadySubscribed", err)
	}
	// Release the worker; AddFilter then RemoveFilter run in ring order.
	go func() {
		for range stuck.Queue() {
		}
	}()
	waitFor(t, "the retraction to free the name", func() bool { return !h.registered("s", "ghost") })
	// No ghost in the engine: the same app joins afresh (a leftover filter
	// would make AddFilter fail) and is the only new addressee.
	again, err := h.join(context.Background(), "ghost", "s", 8)
	if err != nil {
		t.Fatalf("rejoin after the retraction: %v", err)
	}
	if err := h.publish("s", 100, 2); err != nil {
		t.Fatal(err)
	}
	if it := <-again.Queue(); it.seq != 100 || it.fanout != 2 {
		t.Errorf("rejoined member got seq %d shared by %d, want seq 100 shared by 2", it.seq, it.fanout)
	}
}

// TestAbortReleasesParkedWorker: a bounded Close whose graceful drain is
// wedged by a blocking member nobody consumes aborts — the worker parked
// in Send is released by the member's departure, which context
// cancellation alone could not do — and returns without error.
func TestAbortReleasesParkedWorker(t *testing.T) {
	h := newHarness(t, Config{Policy: Block})
	h.open("s")
	stuck := h.mustJoin("stuck", "s", 1)
	if err := h.publish("s", 0, 16); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the worker to fill the queue", func() bool { return len(stuck.Queue()) == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	aborted := false
	start := time.Now()
	err := h.c.Close(ctx, func(open []*Source[item]) error {
		_, err := h.c.FinishSource(open[0], false)
		return err
	}, func() { aborted = true })
	if err != nil {
		t.Errorf("aborted close: %v (cancellation must be stripped)", err)
	}
	if !aborted || time.Since(start) > 5*time.Second {
		t.Errorf("abort hook ran: %v, close took %v", aborted, time.Since(start))
	}
	if !stuck.Departed() || !closed(stuck.Fin()) {
		t.Error("parked member not departed and ended")
	}
	if _, err := h.join(context.Background(), "late", "s", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("join after close: %v, want ErrClosed", err)
	}
}

// TestBlockTimeoutEvicts: with a block timeout, a member that cannot
// absorb a delivery within it is evicted and the worker moves on.
func TestBlockTimeoutEvicts(t *testing.T) {
	h := newHarness(t, Config{Policy: Block, BlockTimeout: 20 * time.Millisecond})
	src := h.open("s")
	stuck := h.mustJoin("stuck", "s", 1)
	if err := h.publish("s", 0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.FinishSource(src, false); err != nil {
		t.Fatalf("finish behind an abandoned member: %v", err)
	}
	if !strings.Contains(stuck.EvictReason(), "blocked longer than") || h.c.Stats().Evictions != 1 {
		t.Errorf("reason %q, %d evictions", stuck.EvictReason(), h.c.Stats().Evictions)
	}
}

// TestFlowGapExpiry: a silent source is reported once, with its owner; a
// source that keeps touching its entry — or is parked busy — is not.
func TestFlowGapExpiry(t *testing.T) {
	expired := make(chan any, 4)
	h := newHarness(t, Config{
		SourceTimeout: 60 * time.Millisecond,
		ScanInterval:  10 * time.Millisecond,
		OnExpire:      func(owner any, _ time.Duration) { expired <- owner },
	})
	silent, live, busy := h.open("silent"), h.open("live"), h.open("busy")
	silent.Owner = "silent-owner"
	busy.Gap.SetBusy(true)
	stop := time.After(300 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		case <-time.After(5 * time.Millisecond):
			h.c.Wheel().Touch(&live.Gap)
		}
	}
	if got := <-expired; got != "silent-owner" {
		t.Errorf("expired owner %v", got)
	}
	if n := h.c.Stats().SourcesExpired; n != 1 || len(expired) != 0 {
		t.Errorf("%d expiries counted, %d more reported; want exactly the silent source", n, len(expired))
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{Block, Drop, Degrade} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("lossy"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestReplay pins the one replay loop: it reads exactly [ResumeFrom,
// SpliceTo), hands out only the records whose labels name the member —
// tested before any decode, so a body that does not decode is never
// touched — passes the payload bytes through unchanged, propagates emit's
// error, and stops with ErrReplayAborted once the member departs.
func TestReplay(t *testing.T) {
	h := newHarness(t, Config{DataDir: t.TempDir()})
	record := func(labels ...string) []byte {
		tp := tuple.MustNew(schema, 0, trace.Epoch, []float64{1})
		b, err := wire.AppendTransmission(nil, tp, labels)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	log := [][]byte{
		record("a"),
		record("b"),
		record("a", "b"),
		{1, 1, 'b', 0xFF}, // names b only; the tuple body is cut short
		record("a"),
		record("a"),
	}
	for i, rec := range log {
		if off, err := h.c.AppendLog("s", rec); err != nil || off != uint64(i) {
			t.Fatalf("append %d: offset %d, %v", i, off, err)
		}
	}
	member := func(app string, from, to uint64) *Member[item] {
		m := h.c.NewMember(app, "s", 0, &fakePeer{})
		m.Resume, m.ResumeFrom, m.SpliceTo = true, from, to
		return m
	}
	replay := func(m *Member[item]) []uint64 {
		var offs []uint64
		err := h.c.Replay(m, func(off uint64, payload []byte) error {
			if string(payload) != string(log[off]) {
				t.Errorf("offset %d: payload %x, want %x", off, payload, log[off])
			}
			offs = append(offs, off)
			return nil
		})
		if err != nil {
			t.Fatalf("replay %s [%d, %d): %v", m.App, m.ResumeFrom, m.SpliceTo, err)
		}
		return offs
	}
	for _, c := range []struct {
		app      string
		from, to uint64
		want     string
	}{
		{"a", 0, 6, "[0 2 4 5]"},
		{"a", 1, 5, "[2 4]"},
		{"b", 0, 6, "[1 2 3]"},
		{"b", 2, 3, "[2]"},
		{"a", 3, 3, "[]"},
		{"c", 0, 6, "[]"},
		{"a", 4, 100, "[4 5]"}, // the fence clamps to the log head
	} {
		if got := fmt.Sprint(replay(member(c.app, c.from, c.to))); got != c.want {
			t.Errorf("replay %s [%d, %d) = %s, want %s", c.app, c.from, c.to, got, c.want)
		}
	}

	stop := errors.New("stop")
	if err := h.c.Replay(member("a", 0, 6), func(uint64, []byte) error { return stop }); err != stop {
		t.Fatalf("emit's error: replay returned %v", err)
	}

	m := member("a", 0, 6)
	n := 0
	err := h.c.Replay(m, func(uint64, []byte) error {
		n++
		m.depart()
		return nil
	})
	if !errors.Is(err, ErrReplayAborted) || n != 1 {
		t.Fatalf("departure mid-replay: %d emitted, err %v; want 1, ErrReplayAborted", n, err)
	}
}
