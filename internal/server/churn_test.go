package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gasf/internal/tuple"
)

// TestSubscriptionChurn drives several publishers while subscribers join
// and leave mid-stream, and asserts every stable subscriber receives its
// source's tuples exactly once, in order — no losses, no duplicates —
// regardless of the churn around it. Run under -race in CI.
func TestSubscriptionChurn(t *testing.T) {
	const (
		sources        = 3
		tuplesPerSrc   = 1500
		churnersPerSrc = 4
	)
	s := startServer(t, Config{})
	addr := s.Addr().String()

	schema, err := tuple.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, sources*(churnersPerSrc+2))

	for si := 0; si < sources; si++ {
		source := fmt.Sprintf("src%d", si)
		pub, err := DialPublisher(context.Background(), addr, source, schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The stable subscriber joins before the first tuple, with a
		// pass-all spec: values step by 1 > delta, so every tuple is a
		// closed singleton set and must be delivered exactly once.
		stable, err := DialSubscriber(context.Background(), addr, "stable", source, "DC1(v, 0.5, 0)", SubDialOpts{})
		if err != nil {
			t.Fatal(err)
		}

		wg.Add(1)
		go func(sub *Subscriber, source string) { // stable consumer
			defer wg.Done()
			next := 0
			for {
				d, err := recvOne(sub)
				if err == ErrStreamEnded {
					break
				}
				if err != nil {
					errs <- fmt.Errorf("%s stable: %w", source, err)
					return
				}
				if d.Tuple.Seq != next {
					errs <- fmt.Errorf("%s stable: got seq %d, want %d (lost or duplicated)", source, d.Tuple.Seq, next)
					return
				}
				next++
			}
			if next != tuplesPerSrc {
				errs <- fmt.Errorf("%s stable: stream ended after %d of %d tuples", source, next, tuplesPerSrc)
			}
		}(stable, source)

		wg.Add(1)
		go func(pub *Publisher, source string, seed int64) { // publisher
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			base := time.Unix(1, 0)
			for i := 0; i < tuplesPerSrc; i++ {
				tp, err := tuple.New(schema, i, base.Add(time.Duration(i+1)*time.Millisecond), []float64{float64(i)})
				if err != nil {
					errs <- err
					return
				}
				if err := publishOne(pub, tp); err != nil {
					errs <- fmt.Errorf("%s publish %d: %w", source, i, err)
					return
				}
				if i%97 == 0 {
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
			}
			if err := pub.Close(); err != nil {
				errs <- err
			}
		}(pub, source, int64(si))

		for ci := 0; ci < churnersPerSrc; ci++ {
			wg.Add(1)
			go func(source string, ci int) { // churning subscriber
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + ci)))
				for round := 0; ; round++ {
					app := fmt.Sprintf("churn%d-%d", ci, round)
					sub, err := DialSubscriber(context.Background(), addr, app, source, "DC1(v, 3.5, 1.5)", SubDialOpts{})
					if err != nil {
						// The source may already be finished; churn ends.
						return
					}
					// Consume a random number of deliveries, then leave.
					limit := rng.Intn(40)
					ended := false
					for i := 0; i < limit; i++ {
						if _, err := recvOne(sub); err != nil {
							ended = true
							break
						}
					}
					sub.Close()
					if ended {
						return
					}
				}
			}(source, ci)
		}
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
