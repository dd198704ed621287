package server

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"gasf/internal/telemetry"
)

// TestScrapeUnderLoad scrapes /metrics and /debug/gasf in a loop while
// three subscribers receive and one of them leaves and rejoins: every
// scrape parses (the exposition under the strict validator), and once
// every stream has ended the aggregate delivery count equals the
// deliveries the subscribers received — each folded batch lands whole,
// whichever egress goroutine wrote it. Run it under -race: the latency
// views are written by the egress goroutines while the scrapes read them.
func TestScrapeUnderLoad(t *testing.T) {
	s := startServer(t, Config{TelemetrySampleEvery: 1})
	addr := s.Addr().String()
	const n1, n2 = 1500, 1500
	sr := stepSeries(t, n1+n2, 0)
	ctx := context.Background()
	pub, err := DialPublisher(ctx, addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const spec = "DC1(v, 0.5, 0)"
	dial := func(app string) *Subscriber {
		t.Helper()
		for attempt := 0; ; attempt++ {
			sub, err := DialSubscriber(ctx, addr, app, "src", spec, SubDialOpts{})
			if err == nil {
				return sub
			}
			// A departure still settling holds the app name briefly.
			if !errors.Is(err, ErrAlreadySubscribed) || attempt == 100 {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	publish := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := publishOne(pub, sr.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := pub.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	scraped := make(chan int)
	go func() {
		scrapes := 0
		defer func() { scraped <- scrapes }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if code, body := get(t, s, "/metrics"); code != 200 {
				t.Errorf("/metrics status %d", code)
			} else if err := telemetry.Validate([]byte(body)); err != nil {
				t.Errorf("/metrics scrape %d failed strict validation: %v", scrapes, err)
				return
			}
			var info DebugInfo
			if code, body := get(t, s, "/debug/gasf"); code != 200 {
				t.Errorf("/debug/gasf status %d", code)
			} else if err := json.Unmarshal([]byte(body), &info); err != nil {
				t.Errorf("/debug/gasf scrape %d is not JSON: %v", scrapes, err)
				return
			}
			scrapes++
		}
	}()

	var (
		mu       sync.Mutex
		received int
		wg       sync.WaitGroup
	)
	drain := func(sub *Subscriber) {
		defer wg.Done()
		got := len(recvAll(t, sub))
		mu.Lock()
		received += got
		mu.Unlock()
	}
	a, b, c := dial("A"), dial("B"), dial("C")
	wg.Add(2)
	go drain(a)
	go drain(b)
	// C takes phase 1's releases (the last tuple is held until the next
	// arrives), leaves, and rejoins for phase 2.
	publish(0, n1)
	for i := 0; i < n1-1; i++ {
		if _, err := recvOne(c); err != nil {
			t.Fatalf("C delivery %d: %v", i, err)
		}
	}
	if err := c.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	received += n1 - 1
	mu.Unlock()
	c2 := dial("C")
	wg.Add(1)
	go drain(c2)
	publish(n1, n1+n2)
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stop)
	scrapes := <-scraped
	if scrapes == 0 {
		t.Fatal("no scrape completed")
	}
	if got := s.Telemetry().Delivery().Snapshot().Count; got != uint64(received) {
		t.Fatalf("aggregate delivery count %d, subscribers received %d", got, received)
	}
	t.Logf("%d deliveries, %d scrapes of each endpoint", received, scrapes)
}
