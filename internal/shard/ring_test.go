package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/tuple"
)

// ringTask fabricates a distinguishable task: the producer id rides in a
// dedicated source struct, the per-producer sequence in the tuple seq.
func ringTask(src *source, seq int) task {
	return task{src: src, t: &tuple.Tuple{Seq: seq}}
}

// TestRingFIFOPerProducer drives many producers through one ring under
// -race and checks every pushed task is popped exactly once, in
// per-producer order — the property the per-source released sequence
// depends on.
func TestRingFIFOPerProducer(t *testing.T) {
	const (
		producers = 8
		perProd   = 5000
		batchMax  = 7
	)
	q := newRing(64)
	srcs := make([]*source, producers)
	for i := range srcs {
		srcs[i] = &source{name: fmt.Sprintf("p%d", i)}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]task, 0, batchMax)
			next := 0
			for next < perProd {
				batch = batch[:0]
				n := 1 + (next+p)%batchMax
				for j := 0; j < n && next < perProd; j++ {
					batch = append(batch, ringTask(srcs[p], next))
					next++
				}
				rem := batch
				for len(rem) > 0 {
					k := q.tryPush(rem)
					rem = rem[k:]
					if len(rem) > 0 {
						if err := q.waitSpace(ctx); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(p)
	}

	seen := make([]int, producers) // next expected seq per producer
	total := 0
	done := make(chan error, 1)
	go func() {
		buf := make([]task, 32)
		for total < producers*perProd {
			n := q.popRun(buf)
			if n == 0 {
				if q.isClosed() && !q.ready() {
					done <- fmt.Errorf("ring closed with %d tasks missing", producers*perProd-total)
					return
				}
				q.park(ctx)
				continue
			}
			for i := 0; i < n; i++ {
				var p int
				if _, err := fmt.Sscanf(buf[i].src.name, "p%d", &p); err != nil {
					done <- err
					return
				}
				if got, want := buf[i].t.Seq, seen[p]; got != want {
					done <- fmt.Errorf("producer %d: popped seq %d, want %d", p, got, want)
					return
				}
				seen[p]++
				total++
			}
		}
		done <- nil
	}()
	wg.Wait()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("consumer did not drain all tasks")
	}
	if q.Len() != 0 {
		t.Fatalf("ring holds %d tasks after full drain", q.Len())
	}
}

// TestRingCapacityOne pins the degenerate ring: capacity one must still
// round-trip tasks and exercise both park paths.
func TestRingCapacityOne(t *testing.T) {
	q := newRing(1)
	if got := q.capacity(); got != 1 {
		t.Fatalf("capacity = %d, want 1", got)
	}
	src := &source{name: "s"}
	ctx := context.Background()
	done := make(chan struct{})
	const n = 1000
	go func() {
		defer close(done)
		for i := 0; i < n; {
			one := []task{ringTask(src, i)}
			if q.tryPush(one) == 1 {
				i++
				continue
			}
			if err := q.waitSpace(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	buf := make([]task, 4)
	for popped := 0; popped < n; {
		k := q.popRun(buf)
		if k == 0 {
			q.park(ctx)
			continue
		}
		for i := 0; i < k; i++ {
			if buf[i].t.Seq != popped {
				t.Fatalf("popped seq %d, want %d", buf[i].t.Seq, popped)
			}
			popped++
		}
	}
	<-done
}

// TestRingParkedProducersAllResume parks many producers on a full ring
// and checks every one of them resumes as the consumer drains it a few
// slots at a time: one space bell wakes one producer, and the chain of
// wake-ups (or the next pop) must reach all the rest — a lost wake-up
// leaves a producer parked on a ring with free slots and the round
// times out.
func TestRingParkedProducersAllResume(t *testing.T) {
	const (
		capacity  = 4
		producers = 8
		perProd   = 3
	)
	ctx := context.Background()
	for round := 0; round < 50; round++ {
		q := newRing(capacity)
		src := &source{name: "s"}
		for i := 0; i < capacity; i++ {
			if q.tryPush([]task{ringTask(src, -1)}) != 1 {
				t.Fatal("could not fill the ring")
			}
		}
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProd; {
					if q.tryPush([]task{ringTask(src, p)}) == 1 {
						i++
						continue
					}
					if err := q.waitSpace(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}(p)
		}
		deadline := time.Now().Add(10 * time.Second)
		for q.prodParked.Load() < producers {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: only %d of %d producers parked", round, q.prodParked.Load(), producers)
			}
			time.Sleep(time.Millisecond)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]task, 1+round%3) // free one to three slots per pop
			for popped := 0; popped < capacity+producers*perProd; {
				n := q.popRun(buf)
				if n == 0 {
					q.park(ctx)
					continue
				}
				popped += n
			}
		}()
		allDone := make(chan struct{})
		go func() { wg.Wait(); close(allDone) }()
		for _, ch := range []chan struct{}{allDone, drained} {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: %d producers still parked on a draining ring (lost wake-up)", round, q.prodParked.Load())
			}
		}
	}
}

// TestRingParkCycleZeroAllocs gates the producer gate: a producer that
// parks on a full ring and is rung awake by the consumer allocates
// nothing (the generation gate it replaced made a channel per wake).
func TestRingParkCycleZeroAllocs(t *testing.T) {
	q := newRing(1)
	one := []task{ringTask(&source{name: "s"}, 0)}
	ctx := context.Background()
	stop := make(chan struct{})
	consumerDone := make(chan struct{})
	// The consumer pops only once the producer has parked, so every
	// cycle goes through the whole park, ring and wake path.
	go func() {
		defer close(consumerDone)
		buf := make([]task, 1)
		for seen := uint64(0); ; seen++ {
			for q.producerParks.Load() == seen {
				select {
				case <-stop:
					return
				default:
				}
				runtime.Gosched()
			}
			q.popRun(buf)
		}
	}()
	cycle := func() {
		for q.tryPush(one) == 0 {
			if err := q.waitSpace(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // fills the ring; every later cycle parks once
	before := q.producerParks.Load()
	const runs = 1000
	avg := testing.AllocsPerRun(runs, cycle)
	parks := q.producerParks.Load() - before
	close(stop)
	<-consumerDone
	if parks < runs {
		t.Fatalf("only %d parks in %d cycles: the gate was not exercised", parks, runs)
	}
	if avg != 0 {
		t.Fatalf("a park/unpark cycle allocates %.3f objects, want 0", avg)
	}
}

// TestRingCloseStress races close against a parked consumer and checks
// the final drain still sees everything that was pushed.
func TestRingCloseStress(t *testing.T) {
	for round := 0; round < 200; round++ {
		q := newRing(8)
		src := &source{name: "s"}
		pushed := make(chan int, 1)
		go func() {
			n := 0
			for i := 0; i < 20; i++ {
				one := []task{ringTask(src, i)}
				if q.tryPush(one) == 0 {
					break // full: the consumer may already be gone
				}
				n++
			}
			pushed <- n
			q.close()
		}()
		got := 0
		buf := make([]task, 8)
		ctx := context.Background()
		for {
			n := q.popRun(buf)
			got += n
			if n == 0 {
				if q.isClosed() && !q.ready() {
					break
				}
				q.park(ctx)
			}
		}
		if want := <-pushed; got != want {
			t.Fatalf("round %d: popped %d of %d pushed tasks", round, got, want)
		}
	}
}

// TestRuntimeControlFeedCloseStress is the runtime-level -race stress the
// issue asks for: many producers feeding batches, concurrent Control
// storms on every source, then a drain racing the tail — no deadlock, no
// lost tuple, controls serialized at tuple boundaries.
func TestRuntimeControlFeedCloseStress(t *testing.T) {
	const (
		sources   = 6
		perSource = 400
		ctlBursts = 25
	)
	s, err := tuple.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	rt := New(Config{Shards: 3, QueueDepth: 4, FlushBatch: 2})
	for i := 0; i < sources; i++ {
		eng, err := core.NewDynamicEngine(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.AddSource(fmt.Sprintf("src%d", i), eng); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Start(context.Background(), func([]Out) {}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < sources; i++ {
		name := fmt.Sprintf("src%d", i)
		wg.Add(2)
		// Feeder: batched submits with tiny queues force producer parks.
		go func(name string) {
			defer wg.Done()
			base := time.Unix(0, 0)
			batch := make([]*tuple.Tuple, 0, 3)
			for j := 0; j < perSource; j++ {
				tp, err := tuple.New(s, j, base.Add(time.Duration(j+1)*time.Millisecond), []float64{float64(j)})
				if err != nil {
					t.Error(err)
					return
				}
				batch = append(batch, tp)
				if len(batch) == cap(batch) || j == perSource-1 {
					if err := rt.SubmitBatch(name, batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
		}(name)
		// Controller: filter churn interleaved with the feed.
		go func(name string, idx int) {
			defer wg.Done()
			for c := 0; c < ctlBursts; c++ {
				id := fmt.Sprintf("app-%d-%d", idx, c)
				err := rt.Control(name, func(e *core.Engine) error {
					f := passAll(t, id)
					if err := e.AddFilter(f); err != nil {
						return err
					}
					return e.RemoveFilter(id)
				})
				if err != nil {
					t.Errorf("control %s: %v", id, err)
					return
				}
			}
		}(name, i)
	}
	wg.Wait()
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	var enq, proc uint64
	for _, snap := range rt.Metrics() {
		enq += snap.Enqueued
		proc += snap.Processed
	}
	if want := uint64(sources * perSource); enq != want || proc != want {
		t.Fatalf("enqueued %d processed %d, want %d each", enq, proc, want)
	}
}
