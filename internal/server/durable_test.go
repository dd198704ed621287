package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gasf/internal/tuple"
)

func ctxTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// TestSubHelloVersions pins the handshake contract: the encoder stamps
// SubProtoVersion, the resume offset round-trips exactly, and a hello of
// any other version — a pre-resume payload with no version at all, or an
// older numbered one — is rejected with both versions named rather than
// read with a layout it does not share.
func TestSubHelloVersions(t *testing.T) {
	const spec = "DC1(v, 0.5, 0)"
	for _, want := range []SubHello{
		{App: "app", Source: "src", Spec: spec, Queue: 7},
		{App: "app", Source: "src", Spec: spec, Queue: 7, Resume: true, ResumeFrom: 42},
		{App: "app", Source: "src", Spec: spec, Resume: true},
	} {
		enc, err := EncodeSubHello(want)
		if err != nil {
			t.Fatal(err)
		}
		h, err := DecodeSubHello(enc)
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Fatalf("round trip: got %+v, want %+v", h, want)
		}
	}

	// Hand-rolled older hellos, as earlier clients sent them.
	base := appendString(nil, "app")
	base = appendString(base, "src")
	base = appendString(base, spec)
	base = binary.AppendUvarint(base, 7)
	v2 := append(binary.AppendUvarint(append([]byte(nil), base...), 2), 0)
	for name, old := range map[string][]byte{"unversioned": base, "version 2": v2} {
		_, err := DecodeSubHello(old)
		if err == nil {
			t.Fatalf("%s hello accepted", name)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(SubProtoVersion)) {
			t.Fatalf("%s hello: error does not name this server's version: %v", name, err)
		}
	}
	if _, err := DecodeSubHello(v2); !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version-2 hello: error does not name the client's version: %v", err)
	}

	// Corrupted trailers must be rejected, not misread.
	enc, err := EncodeSubHello(SubHello{App: "app", Source: "src", Spec: spec, Resume: true, ResumeFrom: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSubHello(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Fatal("trailing junk accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[len(enc)-9] |= 0x80 // a flag bit this version does not define
	if _, err := DecodeSubHello(bad); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if _, err := DecodeSubHello(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated resume offset accepted")
	}
}

// TestResumeRejections covers the handshake-time resume errors: asking a
// non-durable server for history, and asking for an offset the log does
// not reach.
func TestResumeRejections(t *testing.T) {
	plain := startServer(t, Config{})
	if _, err := DialSubscriber(context.Background(), plain.Addr().String(), "a", "src", "DC1(v, 0.5, 0)",
		SubDialOpts{Resume: true}); err == nil {
		t.Fatal("resume against a non-durable server succeeded")
	}

	durable := startServer(t, Config{DataDir: t.TempDir()})
	addr := durable.Addr().String()
	sr := stepSeries(t, 10, 0)
	pub, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// No subscriber is live, so nothing is logged and the head stays 0;
	// any positive offset is beyond it.
	if _, err := DialSubscriber(context.Background(), addr, "a", "src", "DC1(v, 0.5, 0)",
		SubDialOpts{Resume: true, ResumeFrom: 1}); err == nil {
		t.Fatal("resume beyond the log head succeeded")
	}
}

// TestResumeSplice is the server-side resume contract. App "b" stays
// subscribed for the whole stream, so every release is logged and the
// membership at each release is deterministic (Sync fences each wave
// ahead of the membership change that follows it). App "a" consumes a
// prefix, leaves, misses a wave addressed to "b" alone, then resumes
// from its checkpoint: the replay must deliver exactly the records that
// name "a" — its unconsumed remainder — and splice into the live stream
// with no gap, duplicate, or crossover, every delivery's offset equal to
// its position in the durable log.
func TestResumeSplice(t *testing.T) {
	srv := startServer(t, Config{DataDir: t.TempDir()})
	addr := srv.Addr().String()

	wave1 := stepSeries(t, 120, 0)
	wave2 := stepSeries(t, 120, 120)
	wave3 := stepSeries(t, 120, 240)
	total := wave1.Len() + wave2.Len() + wave3.Len()
	publish := func(sr *tuple.Series, pub *Publisher) {
		t.Helper()
		for i := 0; i < sr.Len(); i++ {
			if err := publishOne(pub, sr.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := ctxTimeout()
		defer cancel()
		if err := pub.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}

	pub, err := DialPublisher(context.Background(), addr, "src", wave1.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// "b" anchors the group: it consumes everything concurrently (block
	// policy) and keeps at least one member live at every release.
	subB, err := DialSubscriber(context.Background(), addr, "b", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bDone := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := recvOne(subB); err != nil {
				bDone <- n
				return
			}
			n++
		}
	}()
	subA, err := DialSubscriber(context.Background(), addr, "a", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// Wave 1 is fenced into the engine while {a, b} are both members:
	// sets 0..118 release (the last tuple's set is held back until a
	// later tuple closes it), every record naming both apps.
	publish(wave1, pub)

	// "a" consumes a prefix, checkpoints, and leaves.
	const consumed = 50
	var checkpoint uint64
	for i := 0; i < consumed; i++ {
		d, err := recvOne(subA)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if d.Offset != uint64(i) {
			t.Fatalf("delivery %d carries offset %d", i, d.Offset)
		}
		checkpoint = d.Offset
	}
	leaveCtx, cancel := ctxTimeout()
	defer cancel()
	if err := subA.Leave(leaveCtx); err != nil {
		t.Fatal(err)
	}

	// Wave 2 releases to "b" alone — logged, but never addressed to "a".
	publish(wave2, pub)

	// Resume from the checkpoint; the fence is captured at the join.
	subA2, err := DialSubscriber(context.Background(), addr, "a", "src", "DC1(v, 0.5, 0)",
		SubDialOpts{Resume: true, ResumeFrom: checkpoint + 1})
	if err != nil {
		t.Fatal(err)
	}
	publish(wave3, pub)
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}

	// "a" must see: replayed offsets 50..118 (wave 1's unconsumed
	// remainder, the records naming it), then live offsets 240..359 (wave
	// 3's sets, through the tail flushed at finish). Offsets 119..239
	// belong to "b" alone — wave 2's sets, including its held-back last,
	// whose destinations were decided while "a" was away — and must not
	// appear. In this stream offset == sequence throughout.
	all := recvAll(t, subA2)
	replayed := wave1.Len() - 1 - consumed
	live := wave3.Len()
	if len(all) != replayed+live {
		t.Fatalf("got %d deliveries, want %d replayed + %d live", len(all), replayed, live)
	}
	for i, d := range all {
		want := uint64(consumed + i)
		if i >= replayed {
			want = uint64(total - live + (i - replayed))
		}
		if d.Offset != want || uint64(d.Tuple.Seq) != want {
			t.Fatalf("delivery %d: offset %d seq %d, want %d", i, d.Offset, d.Tuple.Seq, want)
		}
	}
	if n := <-bDone; n != total {
		t.Fatalf("anchor subscriber saw %d deliveries, want %d", n, total)
	}

	c := srv.Counters()
	if c.ReplaysServed != 1 {
		t.Fatalf("ReplaysServed = %d, want 1", c.ReplaysServed)
	}
	if c.ReplayRecordsOut != uint64(replayed) {
		t.Fatalf("ReplayRecordsOut = %d, want %d", c.ReplayRecordsOut, replayed)
	}
	if c.LogAppendErrors != 0 {
		t.Fatalf("LogAppendErrors = %d", c.LogAppendErrors)
	}
}

// TestFramePoolBalancedUnderChurn is the frame-leak detector: with the
// pool ledger enabled, a drop-heavy churn storm (slow subscribers under
// the drop policy, joiners and leavers mid-stream) must return every
// frame and every batch to the pool by the time the server has shut
// down — gets == puts, or some path stranded a reference.
func TestFramePoolBalancedUnderChurn(t *testing.T) {
	frameStats.enabled.Store(true)
	t.Cleanup(func() { frameStats.enabled.Store(false) })
	baseFG, baseFP := frameStats.frameGets.Load(), frameStats.framePuts.Load()
	baseBG, baseBP := frameStats.batchGets.Load(), frameStats.batchPuts.Load()

	s, err := Start(Config{Policy: PolicyDrop, SubscriberQueue: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()

	const (
		sources      = 2
		tuplesPerSrc = 1200
		churners     = 3
	)
	var wg sync.WaitGroup
	errs := make(chan error, sources*(churners+2))
	for si := 0; si < sources; si++ {
		source := fmt.Sprintf("src%d", si)
		sr := stepSeries(t, tuplesPerSrc, 0)
		pub, err := DialPublisher(context.Background(), addr, source, sr.Schema(), 0)
		if err != nil {
			t.Fatal(err)
		}
		// A subscriber that never reads: its queue (depth 1) overflows
		// immediately, exercising the drop-release path all stream long.
		if _, err := DialSubscriber(context.Background(), addr, "stuck", source, "DC1(v, 0.5, 0)", SubDialOpts{}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(pub *Publisher, source string) {
			defer wg.Done()
			for i := 0; i < sr.Len(); i++ {
				if err := publishOne(pub, sr.At(i)); err != nil {
					errs <- fmt.Errorf("%s publish %d: %w", source, i, err)
					return
				}
			}
			if err := pub.Close(); err != nil {
				errs <- fmt.Errorf("%s close: %w", source, err)
			}
		}(pub, source)
		for ci := 0; ci < churners; ci++ {
			wg.Add(1)
			go func(ci int, source string) {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					sub, err := DialSubscriber(context.Background(), addr, fmt.Sprintf("churn%d", ci), source, "DC1(v, 0.5, 0)", SubDialOpts{})
					if err != nil {
						// The source may already have finished.
						return
					}
					for i := 0; i < 40; i++ {
						if _, err := recvOne(sub); err != nil {
							break
						}
					}
					ctx, cancel := ctxTimeout()
					err = sub.Leave(ctx)
					cancel()
					if err != nil {
						errs <- fmt.Errorf("churn%d leave: %w", ci, err)
						return
					}
				}
			}(ci, source)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ctx, cancel := ctxTimeout()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	fg, fp := frameStats.frameGets.Load()-baseFG, frameStats.framePuts.Load()-baseFP
	bg, bp := frameStats.batchGets.Load()-baseBG, frameStats.batchPuts.Load()-baseBP
	if fg != fp {
		t.Errorf("frame pool leak: %d gets, %d puts (%d stranded)", fg, fp, int64(fg)-int64(fp))
	}
	if bg != bp {
		t.Errorf("batch pool leak: %d gets, %d puts (%d stranded)", bg, bp, int64(bg)-int64(bp))
	}
	if fg == 0 || bg == 0 {
		t.Errorf("ledger recorded no traffic (frames %d, batches %d); the storm did not exercise the pool", fg, bg)
	}
}

// TestSyncedSourceSurvivesGapScan pins the liveness rule behind the
// flow-gap scan: a publisher whose session reader is parked inside a
// ring submit (the whole pipeline wedged behind a subscriber that is not
// consuming, block policy) is backpressured, not dead — the scan must
// not expire it however long the stall outlives SourceTimeout, and a
// Sync issued across the stall must complete once the pipeline drains.
func TestSyncedSourceSurvivesGapScan(t *testing.T) {
	const tuples = 6000
	srv := startServer(t, Config{
		Policy:            PolicyBlock,
		SubscriberQueue:   1,
		SourceTimeout:     200 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	addr := srv.Addr().String()
	sr := stepSeries(t, tuples, 0)

	pub, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The wedge: a subscriber that never reads. Shrinking its receive
	// buffer caps how much the kernel absorbs, so the server's writer
	// blocks early and backpressure reaches the ring well within the
	// published volume.
	sub, err := DialSubscriber(context.Background(), addr, "slow", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if tc, ok := sub.conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10)
	}
	pubErr := make(chan error, 1)
	synced := make(chan error, 1)
	go func() {
		for i := 0; i < sr.Len(); i++ {
			if err := publishOne(pub, sr.At(i)); err != nil {
				pubErr <- fmt.Errorf("publish %d: %w", i, err)
				return
			}
		}
		ctx, cancel := ctxTimeout()
		defer cancel()
		synced <- pub.Sync(ctx)
		pubErr <- pub.Close()
	}()

	// Let the stall outlive SourceTimeout several times over. The
	// publisher is parked (its tuples are wedged behind the unread
	// subscriber), so without the busy-flag liveness rule the scan would
	// reap it here.
	time.Sleep(4 * 200 * time.Millisecond)
	if c := srv.Counters(); c.SourcesExpired != 0 {
		t.Fatalf("blocked source expired during the stall (SourcesExpired = %d)", c.SourcesExpired)
	}

	// Drain the wedge: consuming releases the writer, the ring, the
	// parked submit and finally the publisher, whose Sync and graceful
	// close must then complete. The receive buffer goes back up first so
	// the drain is not clocked by a 4KiB window.
	if tc, ok := sub.conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(1 << 20)
	}
	got := len(recvAll(t, sub))
	if err := <-synced; err != nil {
		t.Fatalf("sync across the stall: %v", err)
	}
	if err := <-pubErr; err != nil {
		t.Fatal(err)
	}
	if got != tuples {
		t.Fatalf("delivered %d of %d tuples", got, tuples)
	}
	if c := srv.Counters(); c.SourcesExpired != 0 {
		t.Fatalf("SourcesExpired = %d after drain", c.SourcesExpired)
	}
}
