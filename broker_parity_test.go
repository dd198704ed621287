package gasf_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gasf"
	"gasf/internal/quality"
	"gasf/internal/trace"
	"gasf/internal/wire"
)

// The embedded/networked parity suite: the same publish/subscribe/churn
// script driven through both Broker implementations must yield
// byte-identical wire-encoded released sequences per subscriber —
// including mid-stream joins and departures. Determinism across
// transports rests on two ordering guarantees the API provides:
// Source.Sync orders prior publishes ahead of later membership changes,
// and Subscribe/Subscription.Close return only after the join/departure
// has been applied at a tuple boundary.

// parityEvent is one membership change at a script position.
type parityEvent struct {
	join    bool
	app     string
	spec    string
	queue   int
	consume bool // consuming sessions assert their full stream; silent ones just leave
}

// parityScript is one deterministic publish/churn program over a trace.
type parityScript struct {
	opts   gasf.Options
	source string
	sr     *gasf.Series
	// initial membership, then per-phase publishes and events.
	initial []parityEvent
	phases  []parityPhase
}

type parityPhase struct {
	count  int // tuples published before the events
	events []parityEvent
}

// driveParity runs the script on one broker and returns the
// wire-encoded delivery sequence per consuming app.
func driveParity(t *testing.T, b gasf.Broker, sc parityScript) map[string][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	src, err := b.OpenSource(ctx, sc.source, sc.sr.Schema())
	if err != nil {
		t.Fatalf("open source: %v", err)
	}
	subs := make(map[string]gasf.Subscription)
	fps := make(map[string][]byte)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	consume := func(app string, sub gasf.Subscription) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				d, err := sub.Recv(ctx)
				if errors.Is(err, gasf.ErrStreamEnded) {
					break
				}
				if err != nil {
					t.Errorf("%s: recv: %v", app, err)
					break
				}
				mu.Lock()
				buf, err := wire.AppendTransmission(fps[app], d.Tuple, d.Destinations)
				if err != nil {
					t.Errorf("%s: encode: %v", app, err)
				}
				fps[app] = buf
				mu.Unlock()
			}
			_ = sub.Close(ctx)
		}()
	}
	apply := func(ev parityEvent) {
		if ev.join {
			var opts []gasf.SubOption
			if ev.queue > 0 {
				opts = append(opts, gasf.WithQueueDepth(ev.queue))
			}
			sub, err := b.Subscribe(ctx, ev.app, sc.source, ev.spec, opts...)
			if err != nil {
				t.Fatalf("subscribe %s: %v", ev.app, err)
			}
			subs[ev.app] = sub
			mu.Lock()
			fps[ev.app] = nil
			mu.Unlock()
			if ev.consume {
				consume(ev.app, sub)
			}
		} else {
			sub := subs[ev.app]
			if sub == nil {
				t.Fatalf("script leaves unknown app %s", ev.app)
			}
			if err := sub.Close(ctx); err != nil {
				t.Fatalf("leave %s: %v", ev.app, err)
			}
			delete(subs, ev.app)
			mu.Lock()
			delete(fps, ev.app) // silent leavers do not assert a stream
			mu.Unlock()
		}
	}
	for _, ev := range sc.initial {
		apply(ev)
	}
	next := 0
	publish := func(n int) {
		if n == 0 {
			return
		}
		batch := make([]*gasf.Tuple, 0, n)
		for i := 0; i < n && next < sc.sr.Len(); i++ {
			batch = append(batch, sc.sr.At(next))
			next++
		}
		if err := src.PublishBatch(ctx, batch); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	for _, ph := range sc.phases {
		publish(ph.count)
		for _, ev := range ph.events {
			// The barrier makes the membership change's tuple boundary
			// deterministic: everything published above is ordered first.
			if err := src.Sync(ctx); err != nil {
				t.Fatalf("sync: %v", err)
			}
			apply(ev)
		}
	}
	publish(sc.sr.Len() - next)
	if err := src.Finish(ctx); err != nil {
		t.Fatalf("finish: %v", err)
	}
	wg.Wait()
	return fps
}

// randomParityScript draws a script: a trace, engine options, initial
// members, and mid-stream joins/leaves at random positions.
func randomParityScript(t *testing.T, rng *rand.Rand, idx int) parityScript {
	t.Helper()
	n := 80 + rng.Intn(160)
	cfg := trace.Config{N: n, Seed: rng.Int63n(1 << 30)}
	var (
		sr  *gasf.Series
		err error
	)
	switch rng.Intn(3) {
	case 0:
		sr, err = trace.NAMOS(cfg)
	case 1:
		sr, err = trace.Cow(cfg)
	default:
		sr, err = trace.FireHRR(cfg)
	}
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	attrs := sr.Schema().Names()
	specFor := func() string {
		attr := attrs[rng.Intn(len(attrs))]
		stat, err := sr.MeanAbsChange(attr)
		if err != nil {
			t.Fatal(err)
		}
		if stat == 0 {
			stat = 1e-6
		}
		delta := stat * (0.5 + 2.5*rng.Float64())
		slack := delta * (0.1 + 0.38*rng.Float64())
		kind := quality.DC1
		if rng.Intn(4) == 0 {
			kind = quality.SDC
		}
		return quality.Spec{Kind: kind, Attrs: []string{attr}, Delta: delta, Slack: slack}.String()
	}
	opts := gasf.Options{ShardCount: 1 + rng.Intn(4), QueueDepth: 8 + rng.Intn(64), FlushBatch: 1 + rng.Intn(8)}
	if rng.Intn(2) == 1 {
		opts.Algorithm = gasf.PS
	}
	switch rng.Intn(4) {
	case 0:
		opts.Strategy = gasf.PerCandidateSet
	case 1:
		opts.Strategy = gasf.Batched
		opts.BatchSize = 2 + rng.Intn(30)
	}
	if rng.Intn(4) == 0 {
		opts.Cuts = true
		opts.MaxDelay = time.Duration(30+rng.Intn(120)) * time.Millisecond
	}

	sc := parityScript{opts: opts, source: fmt.Sprintf("src%d", idx), sr: sr}
	stable := 1 + rng.Intn(3)
	for i := 0; i < stable; i++ {
		sc.initial = append(sc.initial, parityEvent{join: true, app: fmt.Sprintf("stable%d", i), spec: specFor(), consume: true})
	}
	// A silent member that departs mid-stream: it never consumes (its
	// stream is not asserted), but its join and acked leave reshape the
	// group for everyone else, which the stable fingerprints do assert.
	leaver := parityEvent{join: true, app: "leaver", spec: specFor(), queue: 4096}
	positions := []int{10 + rng.Intn(n/3), 10 + rng.Intn(n/3)}
	sc.initial = append(sc.initial, leaver)
	sc.phases = []parityPhase{
		{count: positions[0], events: []parityEvent{{join: true, app: "joiner", spec: specFor(), consume: true, queue: 128}}},
		{count: positions[1], events: []parityEvent{{app: "leaver"}}},
	}
	return sc
}

// TestBrokerParityEmbeddedNetworked is the acceptance test of the
// unified API: randomized publish/subscribe/churn scripts produce
// byte-identical per-subscriber wire sequences on the embedded and the
// networked broker.
func TestBrokerParityEmbeddedNetworked(t *testing.T) {
	rng := rand.New(rand.NewSource(20260731))
	cases := 6
	if testing.Short() {
		cases = 2
	}
	for c := 0; c < cases; c++ {
		sc := randomParityScript(t, rng, c)
		t.Run(fmt.Sprintf("case%d", c), func(t *testing.T) {
			emb, err := gasf.NewEmbedded(gasf.WithEngineOptions(sc.opts))
			if err != nil {
				t.Fatal(err)
			}
			embFPs := driveParity(t, emb, sc)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := emb.Close(ctx); err != nil {
				t.Fatalf("embedded close: %v", err)
			}

			srv, err := gasf.StartServer(gasf.ServerConfig{Engine: sc.opts})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := gasf.Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			netFPs := driveParity(t, rb, sc)
			if err := rb.Close(ctx); err != nil {
				t.Fatalf("remote close: %v", err)
			}
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("server shutdown: %v", err)
			}

			if len(embFPs) != len(netFPs) {
				t.Fatalf("app sets differ: embedded %d, networked %d", len(embFPs), len(netFPs))
			}
			for app, embFP := range embFPs {
				netFP, ok := netFPs[app]
				if !ok {
					t.Errorf("app %s missing from networked run", app)
					continue
				}
				if !bytes.Equal(embFP, netFP) {
					t.Errorf("case %d (alg=%v strat=%v cuts=%v shards=%d): app %s released sequences differ (embedded %d bytes, networked %d bytes)",
						c, sc.opts.Algorithm, sc.opts.Strategy, sc.opts.Cuts, sc.opts.ShardCount, app, len(embFP), len(netFP))
				}
				if len(embFP) == 0 {
					t.Logf("case %d app %s: empty stream (filters passed nothing) — weak case", c, app)
				}
			}
		})
	}
}

// driveResume runs the deterministic resume script on one durable
// broker: app "keeper" consumes the whole stream; app "res" consumes
// phase 1 while recording its wire-encoded deliveries, leaves at a Sync
// fence, misses phase 2, then resumes from offset 0 and records the
// replayed history and the spliced phase-3 live stream. It returns the
// keeper's full fingerprint, res's pre-leave fingerprint, res's
// post-resume fingerprint and the post-resume offsets.
func driveResume(t *testing.T, b gasf.Broker, n1, n2, n3 int) (keeperFP, beforeFP, afterFP []byte, offsets []uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	total := recoverySeries(t, n1+n2+n3, 0)
	src, err := b.OpenSource(ctx, "src", total.Schema())
	if err != nil {
		t.Fatal(err)
	}
	publish := func(from, to int) {
		t.Helper()
		batch := make([]*gasf.Tuple, 0, to-from)
		for i := from; i < to; i++ {
			batch = append(batch, total.At(i))
		}
		if err := src.PublishBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if err := src.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	record := func(buf []byte, d *gasf.Delivery) []byte {
		t.Helper()
		out, err := wire.AppendTransmission(buf, d.Tuple, d.Destinations)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	keeper, err := b.Subscribe(ctx, "keeper", "src", "DC1(v, 0.5, 0)")
	if err != nil {
		t.Fatal(err)
	}
	keeperDone := make(chan []byte, 1)
	go func() {
		var fp []byte
		for {
			d, err := keeper.Recv(ctx)
			if errors.Is(err, gasf.ErrStreamEnded) {
				keeperDone <- fp
				return
			}
			if err != nil {
				t.Errorf("keeper: %v", err)
				keeperDone <- fp
				return
			}
			fp = record(fp, d)
		}
	}()

	res, err := b.Subscribe(ctx, "res", "src", "DC1(v, 0.5, 0)")
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: n1-1 sets release (the last is held back); res consumes
	// and records every one, then leaves at a fenced boundary.
	publish(0, n1)
	for i := 0; i < n1-1; i++ {
		d, err := res.Recv(ctx)
		if err != nil {
			t.Fatalf("res delivery %d: %v", i, err)
		}
		beforeFP = record(beforeFP, d)
	}
	if err := res.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Phase 2: released to the keeper alone.
	publish(n1, n1+n2)

	// Resume from the beginning; phase 3 then runs live.
	res2, err := b.Subscribe(ctx, "res", "src", "DC1(v, 0.5, 0)", gasf.WithResumeFrom(0))
	if err != nil {
		t.Fatalf("resume subscribe: %v", err)
	}
	publish(n1+n2, n1+n2+n3)
	if err := src.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	for {
		d, err := res2.Recv(ctx)
		if errors.Is(err, gasf.ErrStreamEnded) {
			break
		}
		if err != nil {
			t.Fatalf("res after resume, delivery %d: %v", len(offsets), err)
		}
		afterFP = record(afterFP, d)
		offsets = append(offsets, d.Offset)
	}
	keeperFP = <-keeperDone
	return keeperFP, beforeFP, afterFP, offsets
}

// TestBrokerParityResume is the resume acceptance test on both
// transports: the replayed history a resumed subscriber receives must be
// byte-identical to the live stream it consumed before leaving, the
// spliced live offsets must sit strictly beyond the replayed ones with
// no gap in the records addressed to the app, and the embedded and
// networked transports must produce identical fingerprints throughout.
func TestBrokerParityResume(t *testing.T) {
	const n1, n2, n3 = 60, 40, 60
	opts := gasf.Options{ShardCount: 2, QueueDepth: 32, FlushBatch: 4}

	type run struct {
		keeper, before, after []byte
		offsets               []uint64
	}
	check := func(t *testing.T, r run) {
		t.Helper()
		// The replayed prefix is exactly the stream res consumed live
		// before leaving: byte-identical, same length.
		if len(r.after) < len(r.before) || !bytes.Equal(r.after[:len(r.before)], r.before) {
			t.Fatalf("replayed stream diverges from the live stream consumed before leaving (replayed+live %d bytes, live prefix %d bytes)", len(r.after), len(r.before))
		}
		// Replay carries offsets 0..n1-2; the live leg follows the phase-2
		// records (keeper-only, skipped by replay) with no gap in res's
		// records and strictly increasing offsets.
		want := (n1 - 1) + n3
		if len(r.offsets) != want {
			t.Fatalf("res received %d deliveries after resume, want %d", len(r.offsets), want)
		}
		for i, off := range r.offsets {
			wantOff := uint64(i)
			if i >= n1-1 {
				wantOff = uint64(n1 + n2 + (i - (n1 - 1)))
			}
			if off != wantOff {
				t.Fatalf("post-resume delivery %d: offset %d, want %d", i, off, wantOff)
			}
		}
	}

	var runs []run
	t.Run("embedded", func(t *testing.T) {
		emb, err := gasf.NewEmbedded(gasf.WithEngineOptions(opts), gasf.WithDurability(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		k, b2, a, off := driveResume(t, emb, n1, n2, n3)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := emb.Close(ctx); err != nil {
			t.Fatal(err)
		}
		r := run{k, b2, a, off}
		check(t, r)
		runs = append(runs, r)
	})
	t.Run("networked", func(t *testing.T) {
		srv, err := gasf.StartServer(gasf.ServerConfig{Engine: opts, DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := gasf.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		k, b2, a, off := driveResume(t, rb, n1, n2, n3)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := rb.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		r := run{k, b2, a, off}
		check(t, r)
		runs = append(runs, r)
	})
	if len(runs) != 2 {
		t.Fatal("one transport did not run")
	}
	if !bytes.Equal(runs[0].keeper, runs[1].keeper) {
		t.Errorf("keeper fingerprints differ across transports (embedded %d bytes, networked %d bytes)", len(runs[0].keeper), len(runs[1].keeper))
	}
	if !bytes.Equal(runs[0].after, runs[1].after) {
		t.Errorf("resumed fingerprints differ across transports (embedded %d bytes, networked %d bytes)", len(runs[0].after), len(runs[1].after))
	}
}
