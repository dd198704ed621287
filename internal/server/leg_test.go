package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gasf/internal/federate"
	"gasf/internal/session"
)

// TestFederatedLegTransitions pins the leg lifecycle at its transition
// function: every edge of opening → live ⇄ redialing → finished |
// closing → closed is taken, every other pair panics, and members attach
// only while the leg is live or redialing — so a leg whose source
// finished upstream refuses the late subscriber, who then dials a fresh
// leg instead of waiting on a read loop that has already exited.
func TestFederatedLegTransitions(t *testing.T) {
	legal := map[[2]legState]bool{
		{legOpening, legLive}: true, {legOpening, legClosing}: true, {legOpening, legClosed}: true,
		{legLive, legRedialing}: true, {legLive, legFinished}: true, {legLive, legClosing}: true,
		{legRedialing, legLive}: true, {legRedialing, legClosing}: true,
		{legFinished, legClosed}: true,
		{legClosing, legClosed}:  true,
	}
	m := &relayMgr{}
	for from := legOpening; from <= legClosed; from++ {
		for to := legOpening; to <= legClosed; to++ {
			leg := m.newLeg(legKey{"s", "a", "DC1(v, 0.5, 0)"}, 0)
			leg.state = from
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				leg.mu.Lock()
				defer leg.mu.Unlock()
				leg.setState(to)
				return false
			}()
			if panicked == legal[[2]legState{from, to}] {
				t.Errorf("%v → %v: panicked %v, legal %v", from, to, panicked, legal[[2]legState{from, to}])
			}
			if !panicked && leg.state != to {
				t.Errorf("%v → %v: state %v after the transition", from, to, leg.state)
			}
		}
	}

	leg := m.newLeg(legKey{"s", "a", "DC1(v, 0.5, 0)"}, 0)
	for _, step := range []struct {
		to     legState
		attach bool
	}{
		{legOpening, false}, {legLive, true}, {legRedialing, true}, {legLive, true}, {legFinished, false}, {legClosed, false},
	} {
		if step.to != legOpening {
			leg.mu.Lock()
			leg.setState(step.to)
			leg.mu.Unlock()
		}
		if got := leg.attach(&subscriber{}); got != step.attach {
			t.Errorf("attach while %v = %v, want %v", step.to, got, step.attach)
		}
	}
}

// legFixture is a core and an edge with the frame ledger on, and the
// goroutine count before either started.
type legFixture struct {
	core, edge *Server
	base       ledger
	goroutines int
}

func newLegFixture(t *testing.T, coreAddr string) *legFixture {
	t.Helper()
	frameStats.enabled.Store(true)
	t.Cleanup(func() { frameStats.enabled.Store(false) })
	f := &legFixture{base: readLedger(), goroutines: runtime.NumGoroutine()}
	quiet := func(string, ...any) {}
	var err error
	if coreAddr == "" {
		if f.core, err = Start(Config{Logf: quiet, Federation: FederationConfig{Role: federate.RoleCore, Self: "c0"}}); err != nil {
			t.Fatal(err)
		}
		coreAddr = f.core.Addr().String()
	}
	cores := []federate.Node{{Name: "c0", Addr: coreAddr}}
	if f.edge, err = Start(Config{Logf: quiet, Federation: FederationConfig{Role: federate.RoleEdge, Self: "e0", Peers: cores}}); err != nil {
		t.Fatal(err)
	}
	return f
}

// shutdown drains the edge, then the core, then checks that the
// federation left nothing behind: every frame and batch back in the free
// lists, and no goroutine beyond those running before the fixture began.
func (f *legFixture) shutdown(t *testing.T) {
	t.Helper()
	for _, s := range []*Server{f.edge, f.core} {
		if s == nil {
			continue
		}
		ctx, cancel := ctxTimeout()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	}
	got := readLedger()
	if fg, fp := got.frameGets-f.base.frameGets, got.framePuts-f.base.framePuts; fg != fp {
		t.Errorf("frame leak: %d gets, %d puts", fg, fp)
	}
	if bg, bp := got.batchGets-f.base.batchGets, got.batchPuts-f.base.batchPuts; bg != bp {
		t.Errorf("batch leak: %d gets, %d puts", bg, bp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > f.goroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left, %d before:\n%s", runtime.NumGoroutine(), f.goroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFederatedLegShutdownDuringFirstDial shuts an edge down while its
// leg's first dial waits on a core that accepted the connection but never
// answers the hello. The shutdown must cancel the dial rather than sit
// out its 5s timeout, and the subscriber whose handshake opened the leg
// must be refused.
func TestFederatedLegShutdownDuringFirstDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hellos := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := ReadFrame(c); err == nil {
				hellos <- c // held open, never answered
			}
		}
	}()
	f := newLegFixture(t, ln.Addr().String())

	refused := make(chan error, 1)
	go func() {
		sub, err := DialSubscriber(context.Background(), f.edge.Addr().String(), "g", "s1", "DC1(v, 0.5, 0)", SubDialOpts{Timeout: 10 * time.Second})
		if err == nil {
			sub.Close()
		}
		refused <- err
	}()
	var held net.Conn
	select {
	case held = <-hellos:
	case <-time.After(5 * time.Second):
		t.Fatal("the leg never sent its hello")
	}
	start := time.Now()
	ctx, cancel := ctxTimeout()
	defer cancel()
	if err := f.edge.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("shutdown took %v: it waited out the first dial", took)
	}
	if err := <-refused; err == nil {
		t.Error("subscriber accepted by an edge that shut down during its leg's first dial")
	}
	held.Close()
	ln.Close()
	f.shutdown(t)
}

// TestFederatedLegLastLeaveRacesJoin replaces a group's only member
// while its departure is in flight: the old member leaves as the new one
// of the same group joins. Each round the newcomer must get a working
// leg — the old one, or, once the old one is closing, a fresh one dialed
// after the core acked the old departure — and exactly the stream
// published after its join. Odd rounds join only once the old leg is
// closing, so those take the fresh-leg path every time.
func TestFederatedLegLastLeaveRacesJoin(t *testing.T) {
	const rounds, perRound = 12, 40
	f := newLegFixture(t, "")
	sr := stepSeries(t, (rounds+1)*perRound, 0)
	pub, err := DialPublisher(context.Background(), f.core.Addr().String(), "s1", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	edgeAddr := f.edge.Addr().String()
	join := func() *Subscriber {
		t.Helper()
		sub, err := DialSubscriber(context.Background(), edgeAddr, "g", "s1", "DC1(v, 0.5, 0)", SubDialOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	// expect publishes round r's tuples and checks that sub receives every
	// one the engine releases, in order: all but the last, whose region
	// stays open until the next round's first tuple. The previous round's
	// last tuple may come first: it was released after the join.
	expect := func(r int, sub *Subscriber) {
		t.Helper()
		if err := pub.PublishBatch(context.Background(), sr.Tuples()[r*perRound:(r+1)*perRound]); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := ctxTimeout()
		defer cancel()
		var d session.Delivery
		for want := r * perRound; want < (r+1)*perRound-1; want++ {
			if err := sub.RecvInto(ctx, &d); err != nil {
				t.Fatalf("round %d: delivery %d: %v", r, want, err)
			}
			if d.Tuple.Seq == r*perRound-1 && want == r*perRound {
				want-- // the held tuple; receive again for want
				continue
			}
			if d.Tuple.Seq != want {
				t.Fatalf("round %d: got tuple %d, want %d", r, d.Tuple.Seq, want)
			}
		}
	}
	legOf := func() *relayLeg {
		f.edge.fed.mu.Lock()
		defer f.edge.fed.mu.Unlock()
		for _, leg := range f.edge.fed.legs {
			return leg
		}
		return nil
	}

	cur := join()
	expect(0, cur)
	for r := 1; r <= rounds; r++ {
		old := legOf()
		left := make(chan error, 1)
		go func(sub *Subscriber) {
			ctx, cancel := ctxTimeout()
			defer cancel()
			left <- sub.Leave(ctx)
		}(cur)
		if r%2 == 1 {
			waitFor(t, "the old leg to close", func() bool {
				old.mu.Lock()
				defer old.mu.Unlock()
				return old.state >= legClosing
			})
		}
		cur = join()
		if err := <-left; err != nil {
			t.Fatalf("round %d: leave: %v", r, err)
		}
		expect(r, cur)
	}
	if dials, want := f.edge.Counters().FedLegDials, uint64(1+(rounds+1)/2); dials < want {
		t.Errorf("%d leg dials over %d rounds, want at least %d", dials, rounds, want)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := ctxTimeout()
	defer cancel()
	var d session.Delivery
	last := (rounds+1)*perRound - 1
	if err := cur.RecvInto(ctx, &d); err != nil || d.Tuple.Seq != last {
		t.Fatalf("at the finish: %v, want tuple %d", err, last)
	}
	if err := cur.RecvInto(ctx, &d); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("after the source finished: %v, want ErrStreamEnded", err)
	}
	cur.Close()
	waitFor(t, "the leg to go", func() bool { return f.edge.FederationStats().UpstreamLegs == 0 })
	f.shutdown(t)
}

// TestFederatedLegFinishThenJoin subscribes to a group through the edge
// right as its source finishes upstream, from several clients at once,
// round after round. Every subscription must be refused or end with
// ErrStreamEnded within the deadline: a subscriber attached to a leg
// whose read loop already saw the finish would get its hello-ok and then
// nothing at all.
func TestFederatedLegFinishThenJoin(t *testing.T) {
	const rounds, joiners = 8, 4
	f := newLegFixture(t, "")
	var accepted, refused atomic.Int64
	edgeAddr := f.edge.Addr().String()
	for r := 0; r < rounds; r++ {
		source := fmt.Sprintf("s%d", r)
		sr := stepSeries(t, 20, 0)
		pub, err := DialPublisher(context.Background(), f.core.Addr().String(), source, sr.Schema(), 0)
		if err != nil {
			t.Fatal(err)
		}
		first, err := DialSubscriber(context.Background(), edgeAddr, "g", source, "DC1(v, 0.5, 0)", SubDialOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.PublishBatch(context.Background(), sr.Tuples()); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(joiners)
		for j := 0; j < joiners; j++ {
			go func() {
				defer wg.Done()
				for attempt := 0; attempt < 50; attempt++ {
					sub, err := DialSubscriber(context.Background(), edgeAddr, "g", source, "DC1(v, 0.5, 0)", SubDialOpts{})
					if err != nil {
						refused.Add(1)
						return // the source is gone
					}
					accepted.Add(1)
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					var d session.Delivery
					for err == nil {
						err = sub.RecvInto(ctx, &d)
					}
					cancel()
					sub.Close()
					if !errors.Is(err, ErrStreamEnded) {
						t.Errorf("round %d: subscription ended with %v, want ErrStreamEnded", r, err)
						return
					}
				}
				t.Errorf("round %d: subscriptions still accepted after 50 attempts", r)
			}()
		}
		pub.Close()
		recvAll(t, first)
		first.Close()
		wg.Wait()
	}
	t.Logf("%d subscriptions ended, %d refused", accepted.Load(), refused.Load())
	waitFor(t, "every leg to go", func() bool { return f.edge.FederationStats().UpstreamLegs == 0 })
	f.shutdown(t)
}
