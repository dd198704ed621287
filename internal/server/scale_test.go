package server

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gasf/internal/tuple"
)

// TestHandshakeLatencyUnderIdleLoad pins the accept-path guarantee that
// motivated the timer wheel: tracking a large idle population must not
// stall new handshakes. 50k fake sessions are injected straight into
// the core's registry and wheel (net.Pipe, no file descriptors), and real
// TCP handshakes are timed while the scan loop runs over them. The old
// O(n)-under-mutex gap scan made every handshake wait for a full
// registry walk; the wheel touches only due buckets.
func TestHandshakeLatencyUnderIdleLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-session fixture")
	}
	s := startServer(t, Config{
		SourceTimeout: 30 * time.Second, // far beyond the test: nothing expires
		ScanInterval:  10 * time.Millisecond,
		DrainGrace:    50 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	schema := scaleSchema(t)

	const idle = 50_000
	pipes := make([]net.Conn, 0, idle)
	t.Cleanup(func() {
		// Release the fake sessions before the server's shutdown cleanup
		// runs (LIFO): a closed peer makes the drain's goodbye writes
		// fail fast instead of blocking on unread pipes.
		for _, c := range pipes {
			c.Close()
		}
	})
	for i := 0; i < idle; i++ {
		client, srvEnd := net.Pipe()
		pipes = append(pipes, client)
		name := s.names.Intern(fmt.Sprintf("idle%d", i))
		src := newSourceSession(name, srvEnd, schema)
		if err := s.core.OpenSource(&src.Source); err != nil {
			t.Fatal(err)
		}
		s.sketch.Record(name, s.core.Wheel().NowTick())
	}
	if got := s.core.Wheel().Size(); got != idle {
		t.Fatalf("wheel tracks %d entries, want %d", got, idle)
	}

	// Let the scan loop run a few intervals over the full population.
	time.Sleep(100 * time.Millisecond)

	addr := s.Addr().String()
	const probes = 25
	lats := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		start := time.Now()
		pub, err := DialPublisher(context.Background(), addr, fmt.Sprintf("probe%d", i), schema, 0)
		if err != nil {
			t.Fatalf("handshake %d under idle load: %v", i, err)
		}
		lats = append(lats, time.Since(start))
		pub.Close()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, max := lats[len(lats)/2], lats[len(lats)-1]
	t.Logf("handshake under %d idle sources: p50=%v max=%v", idle, p50, max)
	if p50 > 250*time.Millisecond {
		t.Errorf("median handshake latency %v under %d idle sources", p50, idle)
	}
	if max > 2*time.Second {
		t.Errorf("worst handshake latency %v under %d idle sources", max, idle)
	}
}

// scaleSchema returns the single-field schema every scale fixture uses.
func scaleSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	return stepSeries(t, 1, 0).Schema()
}

// TestExpiryUnderChurn drives flow-gap expiry while everything around
// it churns (run with -race): heartbeat-only publishers must survive
// every scan, silent neighbors must all expire, and a
// subscribe/unsubscribe storm against both must neither wedge nor be
// wedged by the expiry path.
func TestExpiryUnderChurn(t *testing.T) {
	s := startServer(t, Config{
		HeartbeatInterval: 50 * time.Millisecond,
		SourceTimeout:     300 * time.Millisecond,
		ScanInterval:      20 * time.Millisecond,
		Logf:              func(string, ...any) {},
	})
	addr := s.Addr().String()
	schema := scaleSchema(t)

	const survivors = 8
	const silent = 8
	for i := 0; i < silent; i++ {
		pub, err := DialPublisher(context.Background(), addr, fmt.Sprintf("quiet%d", i), schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
	}
	hbPubs := make([]*Publisher, survivors)
	for i := range hbPubs {
		pub, err := DialPublisher(context.Background(), addr, fmt.Sprintf("hb%d", i), schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		hbPubs[i] = pub
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hbErr atomic.Value
	for i, pub := range hbPubs {
		wg.Add(1)
		go func(i int, pub *Publisher) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(25 * time.Millisecond):
					if err := pub.Heartbeat(context.Background()); err != nil {
						hbErr.Store(fmt.Errorf("survivor hb%d lost its session: %w", i, err))
						return
					}
				}
			}
		}(i, pub)
	}
	// Subscriber churn across both populations while the silent half
	// expires underneath it.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				source := fmt.Sprintf("hb%d", (g+i)%survivors)
				if i%2 == 0 {
					source = fmt.Sprintf("quiet%d", (g+i)%silent)
				}
				sub, err := DialSubscriber(context.Background(), addr, fmt.Sprintf("churn%d", g), source, "DC1(v, 0.5, 0)", SubDialOpts{})
				if err != nil {
					continue // the source may just have expired
				}
				sub.Close()
			}
		}(g)
	}

	waitFor(t, "silent sources to expire", func() bool {
		return s.Counters().SourcesExpired >= silent
	})
	close(stop)
	wg.Wait()
	if err, ok := hbErr.Load().(error); ok {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.SourcesExpired != silent {
		t.Errorf("SourcesExpired = %d, want exactly the %d silent sources", c.SourcesExpired, silent)
	}
	if c.ClosedFlowGap != uint64(silent) {
		t.Errorf("ClosedFlowGap = %d, want %d", c.ClosedFlowGap, silent)
	}
	// Every survivor still answers.
	for i, pub := range hbPubs {
		if err := pub.Heartbeat(context.Background()); err != nil {
			t.Errorf("survivor hb%d dead after churn: %v", i, err)
		}
	}
}
