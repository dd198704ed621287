package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"gasf/internal/federate"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// mallocsDuring returns the process-wide allocation count of fn, every
// goroutine it drives included.
func mallocsDuring(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// loopbackPair returns the two ends of one TCP connection over loopback.
func loopbackPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// Sizes of the allocation budget runs: a warm-up that takes every buffer,
// pool and cache to its working size, then the measured stream.
const (
	budgetWarmup = 4 * budgetGCEvery
	budgetTuples = 50000
	budgetBatch  = 256
	// budgetGCEvery is how often the end-to-end run forces a collection.
	budgetGCEvery = 20 * budgetBatch
)

// budgetCase is one traffic mix of TestTCPPathAllocBudget.
type budgetCase struct {
	name    string
	durable bool
	// federated puts the publisher on a core and the subscribers on an
	// edge, as one group (one app name and spec): the edge relays one
	// upstream stream to every member.
	federated bool
	specs     []string
}

// app names the i-th subscriber of the case.
func (c budgetCase) app(i int) string {
	if c.federated {
		return "a"
	}
	return string(rune('a' + i))
}

// publishBatches publishes tuples [from, to) of sr in budgetBatch runs,
// through the context-taking entry point the Broker interface uses.
func publishBatches(t *testing.T, pub *Publisher, sr *tuple.Series, from, to int) {
	t.Helper()
	tuples := sr.Tuples()
	for off := from; off < to; off += budgetBatch {
		if err := pub.PublishBatchContext(context.Background(), tuples[off:min(off+budgetBatch, to)]); err != nil {
			t.Fatal(err)
		}
	}
}

// publishCollecting is publishBatches with a collection forced every
// budgetGCEvery tuples: a free list the collector can empty shows up as
// refills. The warm-up runs the same way, so it reaches the in-flight
// peak the measured stream will.
func publishCollecting(t *testing.T, pub *Publisher, sr *tuple.Series, from, to int) {
	t.Helper()
	for off := from; off < to; off += budgetGCEvery {
		publishBatches(t, pub, sr, off, min(off+budgetGCEvery, to))
		runtime.GC()
	}
}

// TestTCPPathAllocBudget is the allocation budget of the TCP path, end to
// end and layer by layer: one server, one publisher sending PublishBatch
// runs of 256 one-attribute tuples, three subscribers over loopback (and
// a federated case: one core, one edge relaying to two members). The
// end-to-end count — every allocation of the process while 50k tuples
// cross it, after a 20k warm-up, with a collection forced every 5k — is
// what the test fails on; it is the ingest slab floor (2 allocations per
// 64 tuples, 0.031) plus what the free lists did not cover. The rows
// drive each single-node layer's entry point alone and are logged beside
// it, so a regression names its layer. (Before the read seams, the slab
// decode and the drained engines, the pass-all case counted 11.3 per
// tuple: client receive 6.0, ingest 3.0, engine 1.6; before the free
// lists, 0.05-0.16 depending on when the collector ran.)
func TestTCPPathAllocBudget(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are measured without -race and not under -short")
	}
	const budget = 0.04
	passall := "DC1(v, 0.5, 0)"
	for _, c := range []budgetCase{
		{name: "passall", specs: []string{passall, passall, passall}},
		// Moderate slack on a durable server: candidate sets of several
		// tuples, O/I around a third, every release appended to the log.
		{name: "durable", durable: true, specs: []string{"DC1(v, 3, 1.5)", "DC1(v, 4, 2)", "DC1(v, 5, 2)"}},
		{name: "federated", federated: true, specs: []string{passall, passall}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sr := stepSeries(t, budgetWarmup+budgetTuples, 0)
			perTuple := func(n uint64) float64 { return float64(n) / budgetTuples }

			total, deliveries := budgetEndToEnd(t, c, sr)
			if !c.federated {
				rows := []struct {
					layer  string
					allocs float64
				}{
					{"client publish", perTuple(budgetPublish(t, sr))},
					{"ingest", perTuple(budgetIngest(t, c, sr))},
					{"engine+sink", perTuple(budgetEngineSink(t, c, sr))},
					{"egress", budgetEgress(t) * float64(deliveries) / budgetTuples},
					{"client receive", budgetReceive(t) * float64(deliveries) / budgetTuples},
				}
				sum := 0.0
				for _, r := range rows {
					t.Logf("%-15s %6.3f allocs/tuple", r.layer, r.allocs)
					sum += r.allocs
				}
				t.Logf("%-15s %6.3f allocs/tuple (rows in isolation)", "sum", sum)
			}
			t.Logf("%-15s %6.3f allocs/tuple (%d deliveries for %d tuples)", "end to end", perTuple(total), deliveries, budgetTuples)
			if got := perTuple(total); got > budget {
				t.Errorf("TCP path allocates %.3f objects per tuple end to end, budget %.2f", got, budget)
			}
		})
	}
}

// config is a budget server's configuration. The short subscriber queue
// bounds the frames in flight, so the free lists reach their working
// size in the warm-up: with the default 256-batch queues a writer that
// falls behind lets thousands more frames pile up at some point of a
// 50k-tuple stream, and the allocations that fill the free lists to the
// new peak land in the measurement (a long-running server pays them
// once).
func (c budgetCase) config(t *testing.T) Config {
	cfg := Config{Logf: func(string, ...any) {}, SourceTimeout: -1, SubscriberQueue: 8}
	if c.durable {
		cfg.DataDir = t.TempDir()
	}
	return cfg
}

// budgetTopology starts the case's servers and returns the address
// publishers dial, the address subscribers dial, and the node whose
// deliveries count.
func budgetTopology(t *testing.T, c budgetCase) (pubAddr, subAddr string, delivering *Server) {
	if !c.federated {
		srv := startServer(t, c.config(t))
		return srv.Addr().String(), srv.Addr().String(), srv
	}
	cfg := c.config(t)
	cfg.Federation = FederationConfig{Role: federate.RoleCore, Self: "c0"}
	core := startServer(t, cfg)
	cores := []federate.Node{{Name: "c0", Addr: core.Addr().String()}}
	if err := core.UpdatePeers(cores); err != nil {
		t.Fatal(err)
	}
	cfg = c.config(t)
	cfg.Federation = FederationConfig{Role: federate.RoleEdge, Self: "e0", Peers: cores}
	edge := startServer(t, cfg)
	return core.Addr().String(), edge.Addr().String(), edge
}

// budgetEndToEnd runs the whole path and returns the allocations of the
// measured stream — from the barrier after the warm-up to the last
// subscriber seeing the end of its stream — and the deliveries made.
func budgetEndToEnd(t *testing.T, c budgetCase, sr *tuple.Series) (mallocs, deliveries uint64) {
	pubAddr, subAddr, srv := budgetTopology(t, c)
	pub, err := DialPublisher(pubAddr, "s1", sr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, spec := range c.specs {
		sub, err := DialSubscriber(subAddr, c.app(i), "s1", spec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer sub.Close()
			var d Delivery
			for {
				err := sub.RecvIntoContext(context.Background(), &d)
				if errors.Is(err, ErrStreamEnded) {
					return
				}
				if err != nil {
					t.Errorf("subscriber %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	publishCollecting(t, pub, sr, 0, budgetWarmup)
	if err := pub.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.federated {
		// The barrier holds at the core; the relay hop still carries the
		// warm-up's tail (pass-all: every tuple but the last released).
		want := uint64(len(c.specs) * (budgetWarmup - 1))
		waitFor(t, "warm-up relayed", func() bool { return srv.Counters().DeliveriesOut >= want })
	}
	before := srv.Counters().DeliveriesOut
	frameStats.enabled.Store(true)
	defer frameStats.enabled.Store(false)
	f0, b0 := frameStats.freshFrames.Load(), frameStats.freshBatches.Load()
	mallocs = mallocsDuring(func() {
		publishCollecting(t, pub, sr, budgetWarmup, sr.Len())
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	})
	t.Logf("%-15s %d frames, %d batches", "fresh", frameStats.freshFrames.Load()-f0, frameStats.freshBatches.Load()-b0)
	return mallocs, srv.Counters().DeliveriesOut - before
}

// budgetPublish measures the publisher alone: PublishBatch into a
// connection whose far end discards.
func budgetPublish(t *testing.T, sr *tuple.Series) uint64 {
	conn, far := loopbackPair(t)
	go io.Copy(io.Discard, far)
	pub := &Publisher{conn: conn, schema: sr.Schema(), source: "s1"}
	publishBatches(t, pub, sr, 0, budgetWarmup)
	return mallocsDuring(func() { publishBatches(t, pub, sr, budgetWarmup, sr.Len()) })
}

// budgetIngest measures the server's ingest alone: readSource over a
// connection fed pre-encoded tuple frames, decoding into slabs and
// submitting to the shard ring, where an engine without subscribers
// consumes them.
func budgetIngest(t *testing.T, c budgetCase, sr *tuple.Series) uint64 {
	fx := newSinkFixtureWith(t, c.config(t))
	encode := func(from, to int) []byte {
		var stream []byte
		for i := from; i < to; i++ {
			payload, err := wire.AppendTuple(nil, sr.At(i))
			if err != nil {
				t.Fatal(err)
			}
			stream = AppendFrame(stream, FrameTuple, payload)
		}
		return stream
	}
	warm, measured := encode(0, budgetWarmup), AppendFrame(encode(budgetWarmup, sr.Len()), FrameGoodbye, nil)
	conn, far := loopbackPair(t)
	fx.src.conn = far
	fx.s.srcWG.Add(1) // readSource ends in finishSource, which releases it
	done := make(chan struct{})
	go func() { fx.s.readSource(fx.src); close(done) }()
	if _, err := conn.Write(warm); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ingest warm-up", func() bool { return fx.s.ctr.tuplesIn.Load() == budgetWarmup })
	return mallocsDuring(func() {
		if _, err := conn.Write(measured); err != nil {
			t.Fatal(err)
		}
		<-done
	})
}

// budgetEngineSink measures the engine step, the release and the sink's
// encode-once fan-out (with the log append when durable) alone: tuples go
// straight into the shard runtime, and the three members' queues are
// emptied the way a writer would, short of the socket.
func budgetEngineSink(t *testing.T, c budgetCase, sr *tuple.Series) uint64 {
	cfg := c.config(t)
	cfg.Policy = PolicyBlock
	fx := newSinkFixtureWith(t, cfg)
	var wg sync.WaitGroup
	for i, spec := range c.specs {
		sub := fx.subscribeSpec(c.app(i), 0, spec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case b := <-sub.m.Queue():
					b.releaseAll()
				case <-sub.m.Fin():
					drainQueued(sub.m)
					return
				}
			}
		}()
	}
	rt, tuples := fx.s.core.Runtime(), sr.Tuples()
	submit := func(from, to int) {
		for off := from; off < to; off += budgetBatch {
			if err := rt.SubmitBatch("s1", tuples[off:min(off+budgetBatch, to)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(0, budgetWarmup)
	return mallocsDuring(func() {
		submit(budgetWarmup, sr.Len())
		if _, err := fx.s.core.FinishSource(&fx.src.Source, true); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	})
}

// budgetEgress measures the writer's staging and vectored write alone, in
// allocations per delivered frame.
func budgetEgress(t *testing.T) float64 {
	fx := newSinkFixtureWith(t, Config{Logf: func(string, ...any) {}, SourceTimeout: -1})
	conn, far := loopbackPair(t)
	go io.Copy(io.Discard, far)
	sub := newSubscriber(fx.s, "a", "s1", conn, 0)
	payload := transmissionFrames(t, fx.schema, 1)[frameHeaderLen:]
	var e egress
	const perCycle = 32
	cycle := func() {
		b := getBatch(perCycle)
		for i := 0; i < perCycle; i++ {
			fr := getFrame()
			fr.buf = endFrame(append(beginFrame(fr.buf, FrameTransmission), payload...))
			fr.retain(1)
			b.frames = append(b.frames, fr)
		}
		e.stage(b)
		if err := e.flush(sub); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	return testing.AllocsPerRun(500, cycle) / perCycle
}

// budgetReceive measures the client's receive alone, in allocations per
// delivery: a subscriber session over loopback fed pre-encoded frames.
func budgetReceive(t *testing.T) float64 {
	schema := tuple.MustSchema("v")
	conn, far := loopbackPair(t)
	stream := transmissionFrames(t, schema, 64)
	go func() {
		for {
			if _, err := far.Write(stream); err != nil {
				return
			}
		}
	}()
	sub := &Subscriber{conn: conn, br: bufio.NewReaderSize(conn, 32<<10), schema: schema}
	var d Delivery
	recv := func() {
		if err := sub.RecvIntoContext(context.Background(), &d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		recv()
	}
	return testing.AllocsPerRun(20000, recv)
}

// TestServerEngineBoundedHeap holds a server's memory to its open regions:
// one long-lived source publishes N and then 4N more tuples through a
// started server whose pass-all subscribers keep up, and the heap in use
// after the second stretch is no larger than after the first beyond a
// small allowance. With engines that kept every transmission and latency
// sample (and so every ingested tuple) the second stretch added 35-38 MiB
// here, some 230 bytes per tuple; the allowance is well under a tenth of
// that.
func TestServerEngineBoundedHeap(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("heap growth is measured without -race and not under -short")
	}
	const n = 40000
	sr := stepSeries(t, 5*n, 0)
	srv := startServer(t, Config{Logf: func(string, ...any) {}, SourceTimeout: -1})
	addr := srv.Addr().String()
	pub, err := DialPublisher(addr, "s1", sr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		sub, err := DialSubscriber(addr, string(rune('a'+i)), "s1", "DC1(v, 0.5, 0)")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			var d Delivery
			for sub.RecvIntoContext(context.Background(), &d) == nil {
			}
		}()
	}
	// checkpoint publishes up to tuple `to`, waits until every delivery it
	// released has been handed to its subscriber's writer, and returns the
	// collected heap.
	checkpoint := func(from, to int) uint64 {
		publishBatches(t, pub, sr, from, to)
		if err := pub.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		// A slack-0 set closes when the next tuple arrives: to tuples have
		// released to-1 transmissions to three subscribers.
		want := uint64(3 * (to - 1))
		waitFor(t, "deliveries handed over", func() bool { return srv.Counters().DeliveriesOut == want })
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	first := checkpoint(0, n)
	second := checkpoint(n, 5*n)
	runtime.KeepAlive(sr) // the input is in both readings, not just the first
	growth := int64(second) - int64(first)
	t.Logf("heap in use: %.1f MiB after %d tuples, %.1f MiB after %d (growth %.2f MiB)",
		float64(first)/(1<<20), n, float64(second)/(1<<20), 5*n, float64(growth)/(1<<20))
	if limit := int64(2 << 20); growth > limit {
		t.Errorf("heap grew %d bytes over %d more tuples, limit %d: a server engine's memory must not follow stream length", growth, 4*n, limit)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := srv.Counters().TransmissionsOut; got != 5*n {
		t.Errorf("transmissions out %d, want %d", got, 5*n)
	}
}
