package broker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gasf/internal/adapt"
	"gasf/internal/session"
	"gasf/internal/trace"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// publishVal publishes one single-attribute tuple with an explicit
// value, so a test can steer the filter's delta decisions directly.
func publishVal(t *testing.T, ctx context.Context, src *Source, seq int, val float64) {
	t.Helper()
	tp := tuple.MustNew(src.Schema(), seq, trace.Epoch.Add(time.Duration(seq)*time.Millisecond), []float64{val})
	if err := src.Publish(ctx, tp); err != nil {
		t.Fatalf("publish seq %d: %v", seq, err)
	}
}

// degradeRec is one delivery fingerprint: the tuple's sequence number
// and its wire encoding (tuple bytes plus destinations).
type degradeRec struct {
	seq int
	fp  []byte
}

// collectDeliveries consumes sub until the stream ends, wire-encoding
// every delivery. perRecv, when nonzero, throttles the consumer — the
// pressure source for the degrade governor. slow can flip the throttle
// off mid-stream.
func collectDeliveries(t *testing.T, ctx context.Context, sub *Sub, slow *atomic.Bool, perRecv time.Duration) (<-chan struct{}, *sync.Mutex, *[]degradeRec) {
	var mu sync.Mutex
	recs := &[]degradeRec{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			d, err := sub.Recv(ctx)
			if errors.Is(err, ErrStreamEnded) {
				return
			}
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			buf, err := wire.AppendTransmission(nil, d.Tuple, d.Destinations)
			if err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			mu.Lock()
			*recs = append(*recs, degradeRec{seq: d.Tuple.Seq, fp: buf})
			mu.Unlock()
			if perRecv > 0 && (slow == nil || slow.Load()) {
				time.Sleep(perRecv)
			}
		}
	}()
	return done, &mu, recs
}

// TestDegradeRestoreEquivalence drives a degrade subscriber through a
// full pressure cycle — degrade to MaxScale under a throttled consumer,
// then restore to scale 1 under a prompt one — and proves restoration
// is complete: past a fence tuple whose value jump resynchronizes the
// filter state in any run, the delivered bytes are identical to a
// block-policy run that never degraded. Degradation must leave no
// residue once pressure clears.
func TestDegradeRestoreEquivalence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	gcfg := adapt.GovernorConfig{
		Step:         2,
		MaxScale:     4,
		HiFrac:       0.5,
		LoFrac:       0.25,
		Cooldown:     2 * time.Millisecond,
		RestoreAfter: 40 * time.Millisecond,
	}

	// Degrade run: the publish schedule is recorded so the reference run
	// can replay the identical series.
	b, err := New(session.Config{Policy: session.Degrade, Degrade: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	src := openBench(t, b)
	sub, err := b.Subscribe(ctx, "a", "bench", passAllSpec(t), SubOptions{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	var slow atomic.Bool
	slow.Store(true)
	done, mu, recs := collectDeliveries(t, ctx, sub, &slow, 8*time.Millisecond)

	// Phase 1: flood a throttled consumer until the governor has pushed
	// the scale to its cap.
	i := 0
	deadline := time.Now().Add(30 * time.Second)
	for sub.QoS() < gcfg.MaxScale {
		if time.Now().After(deadline) {
			t.Fatalf("governor never reached MaxScale (QoS=%g after %d tuples)", sub.QoS(), i)
		}
		publishVal(t, ctx, src, i, float64(i))
		i++
		time.Sleep(time.Millisecond)
	}
	// Phase 2: clear the pressure and keep a trickle flowing (Observe
	// samples ride on deliveries) until hysteresis restores scale 1.
	slow.Store(false)
	for sub.QoS() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("governor never restored to 1 (QoS=%g after %d tuples)", sub.QoS(), i)
		}
		publishVal(t, ctx, src, i, float64(i))
		i++
		time.Sleep(2 * time.Millisecond)
	}
	n1 := i
	// The fence: a value jump large enough to become a new reference in
	// any filter state, resynchronizing degraded and never-degraded runs.
	const fenceVal = 1e6
	const tail = 150
	// From the fence on the run must not build pressure of its own — a
	// re-degrade there would be the governor working, not residue. A
	// publish only reaches the shard ring, so pacing on the queue is not
	// enough: each publish (which releases its predecessor) waits for the
	// consumer to have received the release before it.
	received := func(seq int) bool {
		mu.Lock()
		defer mu.Unlock()
		return len(*recs) > 0 && (*recs)[len(*recs)-1].seq >= seq
	}
	for j := 0; j <= tail; j++ {
		// The fence and everything after it is released at any scale one
		// publish later; a wait that times out means the run re-degraded,
		// which the comparison below reports.
		for patience := time.Now().Add(5 * time.Second); j >= 2 && !received(n1+j-2) && time.Now().Before(patience); {
			time.Sleep(50 * time.Microsecond)
		}
		publishVal(t, ctx, src, n1+j, fenceVal+float64(j))
	}
	if err := src.Finish(ctx); err != nil {
		t.Fatalf("finish: %v", err)
	}
	<-done
	if err := b.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reference run: a block broker replays the identical series with a
	// prompt consumer — the never-degraded baseline.
	b2, err := New(session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src2 := openBench(t, b2)
	sub2, err := b2.Subscribe(ctx, "a", "bench", passAllSpec(t), SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done2, mu2, recs2 := collectDeliveries(t, ctx, sub2, nil, 0)
	for k := 0; k < n1; k++ {
		publishVal(t, ctx, src2, k, float64(k))
	}
	publishVal(t, ctx, src2, n1, fenceVal)
	for j := 1; j <= tail; j++ {
		publishVal(t, ctx, src2, n1+j, fenceVal+float64(j))
	}
	if err := src2.Finish(ctx); err != nil {
		t.Fatalf("reference finish: %v", err)
	}
	<-done2
	if err := b2.Close(ctx); err != nil {
		t.Fatalf("reference close: %v", err)
	}

	postFence := func(mu *sync.Mutex, recs *[]degradeRec) []byte {
		mu.Lock()
		defer mu.Unlock()
		var fp []byte
		for _, r := range *recs {
			if r.seq >= n1 {
				fp = append(fp, r.fp...)
			}
		}
		return fp
	}
	got, want := postFence(mu, recs), postFence(mu2, recs2)
	if len(want) == 0 {
		t.Fatal("reference run released nothing past the fence")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restore stream differs from never-degraded run (%d vs %d bytes past the fence)", len(got), len(want))
	}
	t.Logf("degrade run published %d pre-fence tuples; post-fence parity over %d bytes", n1, len(want))
}

// TestDegradeChurnScaleConsistency races the degrade control loop
// against live membership churn: while a throttled subscriber keeps its
// governor stepping, short-lived subscribers join and leave the same
// group, interleaving SetScale with AddFilter/RemoveFilter on the shard
// worker. The applied scale must stay a clean power of Step inside
// [1, MaxScale] at every observation. Run under -race this is also the
// memory-safety proof for the adaptive path.
func TestDegradeChurnScaleConsistency(t *testing.T) {
	ctx := testCtx(t)
	gcfg := adapt.GovernorConfig{
		HiFrac:       0.5,
		LoFrac:       0.25,
		Cooldown:     time.Millisecond,
		RestoreAfter: 10 * time.Millisecond,
	}
	b, err := New(session.Config{Policy: session.Degrade, Degrade: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	src := openBench(t, b)
	sub, err := b.Subscribe(ctx, "a", "bench", passAllSpec(t), SubOptions{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}

	valid := map[float64]bool{1: true, 2: true, 4: true, 8: true}
	var violations atomic.Int64
	received := make(chan int, 1)
	go func() {
		n := 0
		for {
			_, err := sub.Recv(ctx)
			if errors.Is(err, ErrStreamEnded) {
				break
			}
			if err != nil {
				t.Errorf("recv: %v", err)
				break
			}
			n++
			if q := sub.QoS(); !valid[q] {
				violations.Add(1)
				t.Errorf("observed scale %g, want a power of %g in [1, %g]", q, 2.0, 8.0)
			}
			time.Sleep(time.Millisecond)
		}
		received <- n
	}()

	stop := make(chan struct{})
	churned := make(chan int, 1)
	go func() {
		k := 0
		for {
			select {
			case <-stop:
				churned <- k
				return
			default:
			}
			cs, err := b.Subscribe(ctx, fmt.Sprintf("churn%d", k), "bench", passAllSpec(t), SubOptions{Queue: 256})
			if err != nil {
				t.Errorf("churn join %d: %v", k, err)
				churned <- k
				return
			}
			time.Sleep(3 * time.Millisecond)
			if err := cs.Close(ctx); err != nil {
				t.Errorf("churn leave %d: %v", k, err)
				churned <- k
				return
			}
			k++
		}
	}()

	until := time.Now().Add(400 * time.Millisecond)
	i := 0
	for time.Now().Before(until) {
		publishSeq(t, ctx, src, i, 5)
		i += 5
		time.Sleep(time.Millisecond)
	}
	close(stop)
	joins := <-churned
	if err := src.Finish(ctx); err != nil {
		t.Fatalf("finish: %v", err)
	}
	n := <-received
	if n == 0 {
		t.Fatal("throttled subscriber received nothing")
	}
	if violations.Load() > 0 {
		t.Fatalf("%d inconsistent scale observations under churn", violations.Load())
	}
	t.Logf("published %d tuples, %d churn cycles, %d deliveries, final scale %g", i, joins, n, sub.QoS())
}
