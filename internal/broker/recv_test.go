package broker

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"gasf/internal/core"
	"gasf/internal/quality"
	"gasf/internal/seglog"
	"gasf/internal/session"
	"gasf/internal/trace"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// waitQueued waits until the subscription's live queue holds n deliveries.
// A pass-all subscription's delivery of tuple i is released when tuple i+1
// arrives, so n deliveries take n+1 published tuples.
func waitQueued(t *testing.T, ctx context.Context, sub *Sub, n int) {
	t.Helper()
	for len(sub.m.Queue()) < n {
		if ctx.Err() != nil {
			t.Fatalf("queue holds %d deliveries, want %d", len(sub.m.Queue()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecvNoDeliveryAfterDeparture: once a subscription's departure is
// visible — it left, or the broker evicted it — RecvInto reports the end
// on every call, however many deliveries its queue still buffers.
func TestRecvNoDeliveryAfterDeparture(t *testing.T) {
	ctx := testCtx(t)
	const queued = 32

	t.Run("leave", func(t *testing.T) {
		b, err := New(session.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close(ctx)
		src := openBench(t, b)
		sub, err := b.Subscribe(ctx, "a", src.Name(), passAllSpec(t), SubOptions{Queue: 2 * queued})
		if err != nil {
			t.Fatal(err)
		}
		publishSeq(t, ctx, src, 0, queued+1)
		waitQueued(t, ctx, sub, queued)
		if err := sub.Close(ctx); err != nil {
			t.Fatal(err)
		}
		var d session.Delivery
		for i := 0; i < queued; i++ {
			if err := sub.RecvInto(ctx, &d); !errors.Is(err, ErrStreamEnded) {
				t.Fatalf("receive %d after leaving: %v (tuple %v), want ErrStreamEnded", i, err, d.Tuple)
			}
		}
	})

	t.Run("evict", func(t *testing.T) {
		b, err := New(session.Config{Policy: session.Drop, EvictAfterDrops: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close(ctx)
		src := openBench(t, b)
		sub, err := b.Subscribe(ctx, "a", src.Name(), passAllSpec(t), SubOptions{Queue: queued})
		if err != nil {
			t.Fatal(err)
		}
		// Two more than the queue holds (a slack-0 set is released when
		// the next tuple arrives): the drop evicts.
		publishSeq(t, ctx, src, 0, queued+2)
		select {
		case <-sub.m.Done():
		case <-ctx.Done():
			t.Fatal("subscription not evicted")
		}
		if n := len(sub.m.Queue()); n != queued {
			t.Fatalf("queue holds %d deliveries at eviction, want %d", n, queued)
		}
		var d session.Delivery
		for i := 0; i < queued; i++ {
			if err := sub.RecvInto(ctx, &d); !errors.Is(err, ErrEvicted) {
				t.Fatalf("receive %d after eviction: %v (tuple %v), want ErrEvicted", i, err, d.Tuple)
			}
		}
	})
}

// TestRecvDrainsAfterFin: a finished source's subscription receives every
// delivery still buffered, in order, before the end of the stream.
func TestRecvDrainsAfterFin(t *testing.T) {
	ctx := testCtx(t)
	b, err := New(session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	src := openBench(t, b)
	const n = 48
	sub, err := b.Subscribe(ctx, "a", src.Name(), passAllSpec(t), SubOptions{Queue: n})
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, ctx, src, 0, n)
	if err := src.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.m.Fin():
	default:
		t.Fatal("stream not ended after Finish returned")
	}
	var d session.Delivery
	for i := 0; i < n; i++ {
		if err := sub.RecvInto(ctx, &d); err != nil {
			t.Fatalf("receive %d after the end of the stream: %v", i, err)
		}
		if d.Tuple.Seq != i {
			t.Fatalf("receive %d got tuple %d", i, d.Tuple.Seq)
		}
	}
	if err := sub.RecvInto(ctx, &d); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("receive past the buffered deliveries: %v, want ErrStreamEnded", err)
	}
}

// TestRecvReplayBeforeQueuedLive: a resuming subscription whose live
// queue already holds deliveries still receives its whole history first.
func TestRecvReplayBeforeQueuedLive(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	log, err := seglog.Open(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := tuple.MustSchema("v")
	const history, live = 5, 20
	for i := 0; i < history; i++ {
		rec, err := wire.AppendTransmission(nil, tuple.MustNew(schema, i, trace.Epoch.Add(time.Duration(i)*time.Millisecond), []float64{-1}), []string{"a"})
		if err != nil {
			t.Fatal(err)
		}
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
	sub, err := b.Subscribe(ctx, "a", src.Name(), passAllSpec(t), SubOptions{Queue: live, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, ctx, src, history, live+1)
	waitQueued(t, ctx, sub, live)
	var d session.Delivery
	for i := 0; i < history+live; i++ {
		if err := sub.RecvInto(ctx, &d); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if d.Offset != uint64(i) || (i < history) != (d.Tuple.Values[0] == -1) {
			t.Fatalf("receive %d: offset %d value %v; want the %d replayed records first, then the live stream", i, d.Offset, d.Tuple.Values[0], history)
		}
	}
}

// TestEmbeddedRecvIntoZeroAllocs is the allocation gate of the embedded
// receive: taking a buffered delivery allocates nothing.
func TestEmbeddedRecvIntoZeroAllocs(t *testing.T) {
	ctx := testCtx(t)
	b, err := New(session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	src := openBench(t, b)
	const runs = 200
	sub, err := b.Subscribe(ctx, "a", src.Name(), passAllSpec(t), SubOptions{Queue: runs + 1})
	if err != nil {
		t.Fatal(err)
	}
	publishSeq(t, ctx, src, 0, runs+2)
	waitQueued(t, ctx, sub, runs+1)
	var d session.Delivery
	if n := testing.AllocsPerRun(runs, func() {
		if err := sub.RecvInto(ctx, &d); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RecvInto: %v allocations per delivery, want 0", n)
	}
}

// group12Broker starts an embedded broker with the group12 stream's
// source open and its 12 subscriptions joined, each drained by its own
// goroutine; wait returns once every stream has ended.
func group12Broker(tb testing.TB, ctx context.Context, sr *tuple.Series, specs []quality.Spec) (b *Broker, src *Source, wait func()) {
	tb.Helper()
	b, err := New(session.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if src, err = b.OpenSource("namos", sr.Schema()); err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, sp := range specs {
		sub, err := b.Subscribe(ctx, fmt.Sprintf("app%02d", i), "namos", sp, SubOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d session.Delivery
			for sub.RecvInto(ctx, &d) == nil {
			}
		}()
	}
	return b, src, wg.Wait
}

// publishAll publishes tuples in batches of the shard's flush size.
func publishAll(tb testing.TB, ctx context.Context, src *Source, tuples []*tuple.Tuple) {
	tb.Helper()
	const batch = 64
	for lo := 0; lo < len(tuples); lo += batch {
		if err := src.PublishBatch(ctx, tuples[lo:min(lo+batch, len(tuples))]); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestEmbeddedRetainedBoundedHeap gates what the embedded broker's
// retaining engine keeps while a stream runs: the live heap grows by at
// most one Transmission per released transmission, plus the slack of the
// slice's growth, so no per-delivery record can come back.
func TestEmbeddedRetainedBoundedHeap(t *testing.T) {
	ctx := testCtx(t)
	sr, specs := group12Specs(t, 40000)
	tuples := make([]*tuple.Tuple, sr.Len())
	for i := range tuples {
		tuples[i] = sr.At(i)
	}
	b, src, wait := group12Broker(t, ctx, sr, specs)
	retained := func() (trs, deliveries int, heap uint64) {
		err := b.core.Runtime().ControlContext(ctx, "namos", func(e *core.Engine) error {
			trs, deliveries = len(e.Result().Transmissions), e.Result().Stats.Deliveries
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return trs, deliveries, ms.HeapAlloc
	}
	_, _, h0 := retained()
	publishAll(t, ctx, src, tuples)
	trs, deliveries, h1 := retained()

	size := float64(unsafe.Sizeof(core.Transmission{}))
	per := float64(int64(h1)-int64(h0)) / float64(trs)
	// Appending grows a large slice's array by a quarter at a time, and
	// the engine's scratch and destination lists cost a little per stream.
	bound := 1.25*size + 8
	t.Logf("%d transmissions (%d deliveries) retained: %.1f heap bytes each; a Transmission is %.0f B, bound %.0f B",
		trs, deliveries, per, size, bound)
	if per > bound {
		t.Errorf("live heap grew %.1f B per retained transmission, bound %.0f B", per, bound)
	}
	if err := src.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	wait()
	if err := b.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEmbeddedDeliver publishes the group12 stream through an
// embedded broker (broker.New's defaults) to its 12 subscribers, each
// draining on its own goroutine. One op is one published tuple, from
// publish through the engine and fan-out to the last subscriber's
// receive, Finish included; broker set-up and Close are not timed.
// allocs/tuple is allocs/op unrounded.
func BenchmarkEmbeddedDeliver(b *testing.B) {
	ctx := context.Background()
	sr, specs := group12Specs(b, 10000)
	tuples := make([]*tuple.Tuple, sr.Len())
	for i := range tuples {
		tuples[i] = sr.At(i)
	}
	var mallocs uint64
	var ms runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		br, src, wait := group12Broker(b, ctx, sr, specs)
		n := min(len(tuples), b.N-done)
		runtime.ReadMemStats(&ms)
		mallocs -= ms.Mallocs
		b.StartTimer()
		publishAll(b, ctx, src, tuples[:n])
		if err := src.Finish(ctx); err != nil {
			b.Fatal(err)
		}
		wait()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs
		if err := br.Close(ctx); err != nil {
			b.Fatal(err)
		}
		done += n
	}
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/tuple")
}
