package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/trace"
)

func exampleGroup(t testing.TB) []filter.Filter {
	t.Helper()
	a, err := filter.NewDC1("A", "temperature", 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := filter.NewDC1("B", "temperature", 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []filter.Filter{a, b}
}

func TestConfigDefaults(t *testing.T) {
	rt := New(Config{})
	if rt.Shards() < 1 {
		t.Fatalf("shard count %d < 1", rt.Shards())
	}
	if rt.cfg.QueueDepth != DefaultQueueDepth || rt.cfg.FlushBatch != DefaultFlushBatch {
		t.Errorf("defaults not applied: %+v", rt.cfg)
	}
}

func TestShardPartitionIsStable(t *testing.T) {
	rt := New(Config{Shards: 4})
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("src%d", i)
		sh := rt.ShardOf(name)
		if sh < 0 || sh >= 4 {
			t.Fatalf("shard %d out of range", sh)
		}
		if sh != rt.ShardOf(name) {
			t.Fatalf("partition of %q not stable", name)
		}
	}
}

func TestRegistrationErrors(t *testing.T) {
	rt := New(Config{Shards: 2})
	if err := rt.AddSource("", nil); err == nil {
		t.Error("empty name should fail")
	}
	if err := rt.AddSource("s", nil); err == nil {
		t.Error("nil engine should fail")
	}
	if err := rt.AddGroup("s", exampleGroup(t), core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddGroup("s", exampleGroup(t), core.Options{}); err == nil {
		t.Error("duplicate source should fail")
	}
	if err := rt.Feed("s", trace.PaperExample().At(0)); err == nil {
		t.Error("feed before start should fail")
	}
	if err := rt.Drain(); err == nil {
		t.Error("drain before start should fail")
	}
	if err := rt.Start(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background(), nil); err == nil {
		t.Error("double start should fail")
	}
	if err := rt.AddGroup("late", exampleGroup(t), core.Options{}); err == nil {
		t.Error("add after start should fail")
	}
	if err := rt.Feed("ghost", trace.PaperExample().At(0)); err == nil {
		t.Error("feed to unknown source should fail")
	}
	if err := rt.Feed("s", nil); err == nil {
		t.Error("nil tuple should fail")
	}
	if err := rt.FinishSource("s"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Feed("s", trace.PaperExample().At(0)); err == nil {
		t.Error("feed after finish should fail")
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Drain(); err == nil {
		t.Error("double drain should fail")
	}
}

// TestOfferDropsWhenFull blocks the single shard inside a sink flush,
// fills its one-slot queue, and checks Offer rejects and counts the drop.
func TestOfferDropsWhenFull(t *testing.T) {
	rt := New(Config{Shards: 1, QueueDepth: 1, FlushBatch: 1})
	// PS + per-candidate-set: from the second tuple on, every step
	// releases output, so the sink runs (and can block the worker).
	if err := rt.AddGroup("s", exampleGroup(t), core.Options{
		Algorithm: core.PS, Strategy: core.PerCandidateSet,
	}); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	if err := rt.Start(context.Background(), func(batch []Out) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}); err != nil {
		t.Fatal(err)
	}
	// The paper example's values swing by >= 50, so the A/B filters
	// close a set on every second tuple under PS.
	ex := trace.PaperExample()
	if err := rt.Feed("s", ex.At(0)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Feed("s", ex.At(1)); err != nil {
		t.Fatal(err)
	}
	<-entered                                      // worker is now blocked inside the sink
	if err := rt.Feed("s", ex.At(2)); err != nil { // fills the queue
		t.Fatal(err)
	}
	ok, err := rt.Offer("s", ex.At(3))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Offer should reject on a full queue")
	}
	if got := rt.TotalDropped(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	close(release)
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestCancellationStopsFeeding(t *testing.T) {
	rt := New(Config{Shards: 1, QueueDepth: 1, FlushBatch: 1})
	if err := rt.AddGroup("s", exampleGroup(t), core.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := rt.Start(ctx, nil); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The worker may still race one successful enqueue after cancel;
	// within a few attempts Feed must fail with the context error.
	var err error
	ex := trace.PaperExample()
	deadline := time.After(5 * time.Second)
	for i := 0; err == nil && i < ex.Len(); i++ {
		select {
		case <-deadline:
			t.Fatal("Feed never observed cancellation")
		default:
		}
		err = rt.Feed("s", ex.At(i))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("feed error = %v, want context.Canceled", err)
	}
	if err := rt.Drain(); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain error = %v, want context.Canceled", err)
	}
}

func TestEngineErrorPropagates(t *testing.T) {
	rt := New(Config{Shards: 2})
	if err := rt.AddGroup("bad", exampleGroup(t), core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	ex := trace.PaperExample()
	if err := rt.Feed("bad", ex.At(1)); err != nil {
		t.Fatal(err)
	}
	// Same timestamp again: the engine rejects non-increasing time.
	if err := rt.Feed("bad", ex.At(1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Feed("bad", ex.At(2)); err != nil {
		t.Fatal(err)
	}
	err := rt.Drain()
	if err == nil || !strings.Contains(err.Error(), `source "bad"`) {
		t.Fatalf("drain error = %v, want engine error naming the source", err)
	}
	if rt.TotalDropped() == 0 {
		t.Error("tuples after an engine failure should count as dropped")
	}
}

func TestMetricsCounters(t *testing.T) {
	rt := New(Config{Shards: 3, QueueDepth: 4, FlushBatch: 2})
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		if err := rt.AddGroup(n, exampleGroup(t), core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Start(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	ex := trace.PaperExample()
	for i := 0; i < ex.Len(); i++ {
		for _, n := range names {
			if err := rt.Feed(n, ex.At(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	snaps := rt.Metrics()
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	var enq, proc, srcs uint64
	var flushes, drains uint64
	for _, s := range snaps {
		enq += s.Enqueued
		proc += s.Processed
		srcs += uint64(s.Sources)
		flushes += s.Flushes
		drains += s.Drains
		if s.QueueDepth != 0 {
			t.Errorf("shard %d queue depth %d after drain", s.Shard, s.QueueDepth)
		}
		if s.Elapsed <= 0 {
			t.Errorf("shard %d elapsed %v", s.Shard, s.Elapsed)
		}
		if s.Drains > 0 && s.AvgDrainRun < 1 {
			t.Errorf("shard %d avg drain run %.2f < 1 with %d drains", s.Shard, s.AvgDrainRun, s.Drains)
		}
	}
	want := uint64(len(names) * ex.Len())
	if enq != want || proc != want {
		t.Errorf("enqueued %d processed %d, want %d", enq, proc, want)
	}
	if srcs != uint64(len(names)) {
		t.Errorf("sources across shards = %d, want %d", srcs, len(names))
	}
	if flushes == 0 {
		t.Error("no flushes recorded")
	}
	if drains == 0 {
		t.Error("no ring drains recorded")
	}
	if rt.TotalProcessed() != want {
		t.Errorf("TotalProcessed = %d, want %d", rt.TotalProcessed(), want)
	}
}

// TestStressManySources exercises backpressure and cross-shard
// interleaving under -race: many sources on few shards with tiny queues,
// checking every tuple is processed and one spot-checked source matches
// the sequential engine.
func TestStressManySources(t *testing.T) {
	const sources = 40
	sr, err := trace.NAMOS(trace.Config{N: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := sr.MeanAbsChange("tmpr4")
	if err != nil {
		t.Fatal(err)
	}
	group := func() []filter.Filter {
		a, _ := filter.NewDC1("A", "tmpr4", stat, 0.5*stat)
		b, _ := filter.NewDC1("B", "tmpr4", 2*stat, stat)
		return []filter.Filter{a, b}
	}
	rt := New(Config{Shards: 4, QueueDepth: 2, FlushBatch: 3})
	for i := 0; i < sources; i++ {
		if err := rt.AddGroup(fmt.Sprintf("src%02d", i), group(), core.Options{Algorithm: core.PS}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	perSource := make(map[string]int)
	if err := rt.Start(context.Background(), func(batch []Out) {
		mu.Lock()
		for _, o := range batch {
			perSource[o.Source] += len(o.Tr.Destinations)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < sources; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for j := 0; j < sr.Len(); j++ {
				if err := rt.Feed(name, sr.At(j)); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("src%02d", i))
	}
	wg.Wait()
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.TotalProcessed(), uint64(sources*sr.Len()); got != want {
		t.Errorf("processed %d tuples, want %d", got, want)
	}
	want, err := core.Run(group(), sr, core.Options{Algorithm: core.PS})
	if err != nil {
		t.Fatal(err)
	}
	results := rt.Results()
	for i := 0; i < sources; i++ {
		name := fmt.Sprintf("src%02d", i)
		got := results[name]
		if got.Stats.Transmissions != want.Stats.Transmissions ||
			got.Stats.DistinctOutputs != want.Stats.DistinctOutputs {
			t.Errorf("%s: (transmissions, distinct) = (%d, %d), want (%d, %d)",
				name, got.Stats.Transmissions, got.Stats.DistinctOutputs,
				want.Stats.Transmissions, want.Stats.DistinctOutputs)
		}
		if perSource[name] != got.Stats.Deliveries {
			t.Errorf("%s: sink saw %d deliveries, result has %d",
				name, perSource[name], got.Stats.Deliveries)
		}
	}
}

// TestStressCancelMidStream cancels while many producers are blocked on
// backpressure and checks the runtime unwinds without deadlock.
func TestStressCancelMidStream(t *testing.T) {
	const sources = 16
	sr, err := trace.NAMOS(trace.Config{N: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(Config{Shards: 2, QueueDepth: 1, FlushBatch: 1})
	for i := 0; i < sources; i++ {
		a, _ := filter.NewDC1("A", "tmpr4", 0.01, 0.005)
		if err := rt.AddGroup(fmt.Sprintf("src%02d", i), []filter.Filter{a}, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	slow := func(batch []Out) { time.Sleep(100 * time.Microsecond) }
	if err := rt.Start(ctx, slow); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < sources; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for j := 0; j < sr.Len(); j++ {
				if err := rt.Feed(name, sr.At(j)); err != nil {
					return // cancellation
				}
			}
		}(fmt.Sprintf("src%02d", i))
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producers did not unwind after cancel")
	}
	if err := rt.Drain(); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain error = %v, want context.Canceled", err)
	}
	// No tuple vanishes uncounted: everything enqueued was either
	// processed or counted dropped (worker drain, queue sweep). Dropped
	// may exceed the difference because feed-side rejections also count.
	var enq, proc, drop uint64
	for _, s := range rt.Metrics() {
		enq, proc, drop = enq+s.Enqueued, proc+s.Processed, drop+s.Dropped
	}
	if enq > proc+drop {
		t.Errorf("%d enqueued tuples unaccounted for (processed %d, dropped %d)", enq-proc-drop, proc, drop)
	}
}
