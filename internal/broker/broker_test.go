package broker

import (
	"context"
	"errors"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/quality"
	"gasf/internal/seglog"
	"gasf/internal/session"
	"gasf/internal/trace"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func passAllSpec(t *testing.T) quality.Spec {
	t.Helper()
	// Slack 0 makes every tuple a closed singleton set: pass-all.
	return quality.MustParse("DC1(v, 0.5, 0)")
}

func openBench(t *testing.T, b *Broker) *Source {
	t.Helper()
	schema := tuple.MustSchema("v")
	src, err := b.OpenSource("bench", schema)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func publishSeq(t *testing.T, ctx context.Context, src *Source, start, n int) {
	t.Helper()
	schema := src.Schema()
	batch := make([]*tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		seq := start + i
		batch = append(batch, tuple.MustNew(schema, seq, trace.Epoch.Add(time.Duration(seq)*time.Millisecond), []float64{float64(seq)}))
	}
	if err := src.PublishBatch(ctx, batch); err != nil {
		t.Fatalf("publish: %v", err)
	}
}

// TestPubSubChurn drives the full dynamic lifecycle in-process: two
// subscribers, a mid-stream join at a Sync barrier, a mid-stream leave,
// and a graceful finish that ends every stream.
func TestPubSubChurn(t *testing.T) {
	ctx := testCtx(t)
	b, err := New(session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	src := openBench(t, b)

	subA, err := b.Subscribe(ctx, "a", "bench", passAllSpec(t), SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := b.Subscribe(ctx, "b", "bench", passAllSpec(t), SubOptions{})
	if err != nil {
		t.Fatal(err)
	}

	type recvCount struct {
		name string
		n    int
	}
	done := make(chan recvCount, 3)
	consume := func(name string, sub *Sub) {
		go func() {
			n := 0
			for {
				_, err := sub.Recv(ctx)
				if errors.Is(err, ErrStreamEnded) {
					break
				}
				if err != nil {
					t.Errorf("%s: recv: %v", name, err)
					break
				}
				n++
			}
			done <- recvCount{name, n}
		}()
	}
	consume("a", subA)

	publishSeq(t, ctx, src, 0, 50)
	if err := src.Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	subC, err := b.Subscribe(ctx, "c", "bench", passAllSpec(t), SubOptions{})
	if err != nil {
		t.Fatalf("mid-stream join: %v", err)
	}
	consume("c", subC)
	// b leaves without ever consuming; its queued deliveries are
	// discarded and the group re-derives for a and c.
	if err := subB.Close(ctx); err != nil {
		t.Fatalf("leave: %v", err)
	}
	publishSeq(t, ctx, src, 50, 50)
	if err := src.Finish(ctx); err != nil {
		t.Fatalf("finish: %v", err)
	}
	counts := make(map[string]int)
	for i := 0; i < 2; i++ {
		rc := <-done
		counts[rc.name] = rc.n
	}
	if counts["a"] != 100 {
		t.Errorf("a received %d deliveries, want 100 (pass-all over the whole stream)", counts["a"])
	}
	if counts["c"] != 50 {
		t.Errorf("c received %d deliveries, want 50 (joined at the barrier)", counts["c"])
	}
	res := b.Results()["bench"]
	if res == nil || res.Stats.Inputs != 100 {
		t.Fatalf("results missing or wrong inputs: %+v", res)
	}
}

// TestQueueDepthPropagation pins the subscription queue depth plumbing:
// explicit requests are honored, zero takes the broker default, and
// oversized requests clamp to the configured maximum.
func TestQueueDepthPropagation(t *testing.T) {
	ctx := testCtx(t)
	b, err := New(session.Config{SubscriberQueue: 7, MaxSubscriberQueue: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	openBench(t, b)

	sub, err := b.Subscribe(ctx, "explicit", "bench", passAllSpec(t), SubOptions{Queue: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.QueueDepth(); got != 3 {
		t.Errorf("explicit queue depth = %d, want 3", got)
	}
	sub, err = b.Subscribe(ctx, "default", "bench", passAllSpec(t), SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.QueueDepth(); got != 7 {
		t.Errorf("default queue depth = %d, want 7", got)
	}
	sub, err = b.Subscribe(ctx, "clamped", "bench", passAllSpec(t), SubOptions{Queue: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.QueueDepth(); got != 100 {
		t.Errorf("clamped queue depth = %d, want 100", got)
	}
}

// TestDropPolicy checks the drop slow-consumer policy: a subscriber that
// never consumes keeps at most its queue depth and the overflow is
// counted, while the publisher is never stalled.
func TestDropPolicy(t *testing.T) {
	ctx := testCtx(t)
	b, err := New(session.Config{Policy: session.Drop})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	src := openBench(t, b)
	sub, err := b.Subscribe(ctx, "slow", "bench", passAllSpec(t), SubOptions{Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, ctx, src, 0, 200)
	if err := src.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	received := 0
	for {
		if _, err := sub.Recv(ctx); err != nil {
			break
		}
		received++
	}
	if received > 2 {
		t.Errorf("received %d deliveries with queue depth 2", received)
	}
	if got := sub.Dropped(); got < 190 {
		t.Errorf("dropped = %d, want most of the 200 pass-all deliveries", got)
	}
}

// TestSubscribeValidation covers the rejection paths shared with the
// networked server.
func TestSubscribeValidation(t *testing.T) {
	ctx := testCtx(t)
	b, err := New(session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src := openBench(t, b)
	if _, err := b.Subscribe(ctx, "a", "nope", passAllSpec(t), SubOptions{}); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := b.Subscribe(ctx, "a", "bench", quality.MustParse("DC1(other, 1, 0.5)"), SubOptions{}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := b.Subscribe(ctx, "a", "bench", passAllSpec(t), SubOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(ctx, "a", "bench", passAllSpec(t), SubOptions{}); err == nil {
		t.Error("duplicate app should fail")
	}
	if _, err := b.OpenSource("bench", src.Schema()); err == nil {
		t.Error("duplicate source should fail")
	}
	if err := b.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := b.Subscribe(ctx, "late", "bench", passAllSpec(t), SubOptions{}); err == nil {
		t.Error("subscribe after close should fail")
	}
	if _, err := b.OpenSource("late", src.Schema()); err == nil {
		t.Error("open after close should fail")
	}
}

// TestPublishValidation pins the ingest contract: schema binding and
// strictly increasing timestamps, as on the wire.
func TestPublishValidation(t *testing.T) {
	ctx := testCtx(t)
	b, err := New(session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	src := openBench(t, b)
	good := tuple.MustNew(src.Schema(), 0, trace.Epoch.Add(time.Second), []float64{1})
	if err := src.Publish(ctx, good); err != nil {
		t.Fatal(err)
	}
	stale := tuple.MustNew(src.Schema(), 1, trace.Epoch.Add(time.Second), []float64{2})
	if err := src.Publish(ctx, stale); err == nil {
		t.Error("non-increasing timestamp should fail")
	}
	other := tuple.MustNew(tuple.MustSchema("w"), 2, trace.Epoch.Add(2*time.Second), []float64{3})
	if err := src.Publish(ctx, other); err == nil {
		t.Error("foreign schema should fail")
	}
	// An equal schema built separately is fine — binding is by names.
	same := tuple.MustNew(tuple.MustSchema("v"), 3, trace.Epoch.Add(3*time.Second), []float64{4})
	if err := src.Publish(ctx, same); err != nil {
		t.Errorf("equal schema rejected: %v", err)
	}
	if err := src.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if err := src.Publish(ctx, good); err == nil {
		t.Error("publish after finish should fail")
	}
}

// TestBlockEvictionUnwedgesGracefulClose proves an abandoned blocking
// subscription cannot wedge the broker forever: after evictTimeout the
// subscriber is treated as departed, the worker resumes, and a graceful
// Close with an unbounded context completes. The active subscriber is
// undisturbed.
func TestBlockEvictionUnwedgesGracefulClose(t *testing.T) {
	ctx := testCtx(t)
	evictTimeout = 100 * time.Millisecond
	t.Cleanup(func() { evictTimeout = 10 * time.Second })
	b, err := New(session.Config{Policy: session.Block, Engine: core.Options{ShardCount: 1}})
	if err != nil {
		t.Fatal(err)
	}
	src := openBench(t, b)
	abandoned, err := b.Subscribe(ctx, "abandoned", "bench", passAllSpec(t), SubOptions{Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	active, err := b.Subscribe(ctx, "active", "bench", passAllSpec(t), SubOptions{Queue: 1024})
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, ctx, src, 0, 32) // more than the abandoned queue holds
	start := time.Now()
	if err := b.Close(context.Background()); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("graceful close took %v despite eviction", elapsed)
	}
	// The evicted subscription may still drain what its queue buffered
	// before eviction, then reports the stream end.
	buffered := 0
	for {
		_, err := abandoned.Recv(ctx)
		if err != nil {
			if !errors.Is(err, ErrEvicted) {
				t.Errorf("evicted subscription Recv = %v, want ErrEvicted", err)
			}
			break
		}
		buffered++
	}
	if buffered > 1 {
		t.Errorf("evicted subscription drained %d deliveries, queue depth is 1", buffered)
	}
	got := 0
	for {
		if _, err := active.Recv(ctx); err != nil {
			break
		}
		got++
	}
	if got != 32 {
		t.Errorf("active subscriber received %d deliveries, want all 32", got)
	}
	if abandoned.Dropped() == 0 {
		t.Error("eviction should count dropped deliveries")
	}
}

// TestCloseAbortUnblocks proves a bounded Close aborts a drain wedged by
// a blocking subscriber that nobody consumes: the worker parked on the
// full queue is released and Close returns within the context bound.
func TestCloseAbortUnblocks(t *testing.T) {
	b, err := New(session.Config{Policy: session.Block, Engine: core.Options{ShardCount: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	src := openBench(t, b)
	if _, err := b.Subscribe(ctx, "stuck", "bench", passAllSpec(t), SubOptions{Queue: 1}); err != nil {
		t.Fatal(err)
	}
	// More pass-all tuples than the queue holds: the worker blocks
	// sending delivery #2.
	publishSeq(t, ctx, src, 0, 16)
	closeCtx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_ = b.Close(closeCtx)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("aborted close took %v", elapsed)
	}
}

// TestSourceEviction proves embedded flow-gap expiry: a source that
// goes silent past SourceTimeout is auto-finished (its subscriber's
// stream ends), while a source that keeps publishing — and one parked
// at Sync barriers — survive.
func TestSourceEviction(t *testing.T) {
	b, err := New(session.Config{
		Engine:        core.Options{ShardCount: 1},
		SourceTimeout: 150 * time.Millisecond,
		ScanInterval:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	defer b.Close(ctx)

	schema := tuple.MustSchema("v")
	silent, err := b.OpenSource("silent", schema)
	if err != nil {
		t.Fatal(err)
	}
	live, err := b.OpenSource("live", schema)
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := b.OpenSource("barrier", schema)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe(ctx, "watcher", "silent", passAllSpec(t), SubOptions{})
	if err != nil {
		t.Fatal(err)
	}

	publishSeq(t, ctx, silent, 0, 4)
	// silent now goes quiet; live publishes and barrier Syncs through
	// several timeouts.
	deadline := time.Now().Add(600 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		publishSeq(t, ctx, live, i, 1)
		if err := barrier.Sync(ctx); err != nil {
			t.Fatalf("sync: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The silent source's stream must have ended: drain the deliveries,
	// then expect the end-of-stream sentinel.
	got := 0
	for {
		recvCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := sub.Recv(recvCtx)
		cancel()
		if err != nil {
			if !errors.Is(err, ErrStreamEnded) {
				t.Fatalf("Recv: %v, want ErrStreamEnded", err)
			}
			break
		}
		got++
	}
	if got == 0 {
		t.Error("published deliveries lost to eviction")
	}
	if n := b.Stats().SourcesExpired; n != 1 {
		t.Errorf("Evicted = %d, want 1 (only the silent source)", n)
	}
	// Survivors still work.
	publishSeq(t, ctx, live, 10_000, 1)
	if err := barrier.Sync(ctx); err != nil {
		t.Errorf("barrier source evicted despite Syncs: %v", err)
	}
}

// TestResumeSkipsRecordsForOtherApps: a resuming subscription's replay
// tests each log record's labels before decoding it, so a record naming
// only another application is skipped even when its tuple body would not
// decode, and the history around it arrives intact.
func TestResumeSkipsRecordsForOtherApps(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	log, err := seglog.Open(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := tuple.MustSchema("v")
	mine, err := wire.AppendTransmission(nil, tuple.MustNew(schema, 0, trace.Epoch, []float64{7}), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	// One label, "other", then a tuple body cut short.
	theirs := []byte{1, 5, 'o', 't', 'h', 'e', 'r', 0xFF}
	for _, rec := range [][]byte{mine, theirs} {
		if _, err := log.Append("bench", rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := New(session.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	src := openBench(t, b)
	sub, err := b.Subscribe(ctx, "a", "bench", passAllSpec(t), SubOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	const live = 10
	publishSeq(t, ctx, src, 1, live)
	if err := src.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	var offsets []uint64
	for {
		d, err := sub.Recv(ctx)
		if errors.Is(err, ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatalf("after %d deliveries: %v", len(offsets), err)
		}
		if len(offsets) == 0 && (d.Tuple.Values[0] != 7 || d.Destinations[0] != "a") {
			t.Fatalf("first delivery %v to %v, want the replayed record", d.Tuple, d.Destinations)
		}
		offsets = append(offsets, d.Offset)
	}
	if len(offsets) != 1+live || offsets[0] != 0 || offsets[1] != 2 {
		t.Fatalf("offsets %v: want 0, then the live stream from 2", offsets)
	}
}
