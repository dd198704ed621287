package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/quality"
	"gasf/internal/session"
	"gasf/internal/trace"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// namosSeries builds a deterministic trace for equivalence runs.
func namosSeries(t *testing.T, n int) *tuple.Series {
	t.Helper()
	sr, err := trace.NAMOS(trace.Config{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// stepSeries builds n tuples over schema ("v") whose value steps by 1, so
// a "DC1(v, 0.5, 0)" subscriber receives every tuple exactly once.
func stepSeries(t *testing.T, n, offset int) *tuple.Series {
	t.Helper()
	s, err := tuple.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	sr := tuple.NewSeries(s)
	base := time.Unix(1, 0)
	for i := 0; i < n; i++ {
		tp, err := tuple.New(s, offset+i, base.Add(time.Duration(offset+i+1)*time.Millisecond), []float64{float64(offset + i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	return sr
}

// publishSeries streams a whole series then closes the publisher.
func publishSeries(t *testing.T, addr, source string, sr *tuple.Series) {
	t.Helper()
	pub, err := DialPublisher(context.Background(), addr, source, sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatalf("publishing tuple %d: %v", i, err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
}

// publishOne publishes one tuple as a one-element batch.
func publishOne(pub *Publisher, t *tuple.Tuple) error {
	return pub.PublishBatch(context.Background(), []*tuple.Tuple{t})
}

// recvOne receives the next delivery into a fresh Delivery.
func recvOne(sub *Subscriber) (*session.Delivery, error) {
	d := new(session.Delivery)
	if err := sub.RecvInto(context.Background(), d); err != nil {
		return nil, err
	}
	return d, nil
}

// recvAll drains a subscriber until the stream ends gracefully.
func recvAll(t *testing.T, sub *Subscriber) []*session.Delivery {
	t.Helper()
	var out []*session.Delivery
	for {
		d, err := recvOne(sub)
		if errors.Is(err, ErrStreamEnded) {
			return out
		}
		if err != nil {
			t.Fatalf("after %d deliveries: %v", len(out), err)
		}
		out = append(out, d)
	}
}

// TestPublishSubscribeEndToEnd runs one publisher and two subscribers
// through a full stream lifecycle over loopback.
func TestPublishSubscribeEndToEnd(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()
	sr := namosSeries(t, 300)

	pub, err := DialPublisher(context.Background(), addr, "buoy", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	subA, err := DialSubscriber(context.Background(), addr, "A", "buoy", "DC1(fluoro, 0.3, 0.15)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := subA.Schema().String(), sr.Schema().String(); got != want {
		t.Fatalf("handshake schema %s, want %s", got, want)
	}
	subB, err := DialSubscriber(context.Background(), addr, "B", "buoy", "DC1(fluoro, 0.5, 0.25)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var dA, dB []*session.Delivery
	wg.Add(2)
	go func() { defer wg.Done(); dA = recvAll(t, subA) }()
	go func() { defer wg.Done(); dB = recvAll(t, subB) }()

	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(dA) == 0 || len(dB) == 0 {
		t.Fatalf("deliveries A=%d B=%d, want both > 0", len(dA), len(dB))
	}
	for _, d := range dA {
		found := false
		for _, dest := range d.Destinations {
			if dest == "A" {
				found = true
			}
		}
		if !found {
			t.Fatalf("A received transmission not addressed to it: %v", d.Destinations)
		}
	}
	c := s.Counters()
	if c.TuplesIn != uint64(sr.Len()) {
		t.Fatalf("TuplesIn = %d, want %d", c.TuplesIn, sr.Len())
	}
	if c.SourcesFinished != 1 || c.SourcesFailed != 0 {
		t.Fatalf("sources finished=%d failed=%d, want 1/0", c.SourcesFinished, c.SourcesFailed)
	}
}

// TestBatchPublishRecvInto drives the batched client paths end to end:
// PublishBatch ships whole bursts in one write (one server-side ring
// submission per run) and RecvInto receives into reused storage; every
// tuple must arrive exactly once, in order, with interned labels.
func TestBatchPublishRecvInto(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()
	schema, err := tuple.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := DialPublisher(context.Background(), addr, "burst", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := DialSubscriber(context.Background(), addr, "A", "burst", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}

	const tuples = 500
	var wg sync.WaitGroup
	wg.Add(1)
	var got []float64
	var labels []string
	go func() {
		defer wg.Done()
		var d session.Delivery
		for {
			err := sub.RecvInto(context.Background(), &d)
			if err == ErrStreamEnded {
				return
			}
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = append(got, d.Tuple.Values[0])
			labels = append(labels, d.Destinations[0])
		}
	}()
	// Mixed burst sizes, including a single-tuple batch and one empty.
	if err := pub.PublishBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	batch := make([]*tuple.Tuple, 0, 64)
	start := time.Now()
	n := 0
	for n < tuples {
		k := 1 + n%64
		if n+k > tuples {
			k = tuples - n
		}
		batch = batch[:0]
		for j := n; j < n+k; j++ {
			tp, err := tuple.New(schema, j, start.Add(time.Duration(j)*time.Millisecond), []float64{float64(j)})
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, tp)
		}
		if err := pub.PublishBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		n += k
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(got) != tuples {
		t.Fatalf("received %d tuples, want %d", len(got), tuples)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("delivery %d carries value %v, want %d (order or loss)", i, v, i)
		}
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] != "A" {
			t.Fatalf("delivery %d labeled %q, want A", i, labels[i])
		}
	}
	if c := s.Counters(); c.TuplesIn != tuples {
		t.Fatalf("TuplesIn = %d, want %d", c.TuplesIn, tuples)
	}
}

// TestNetworkedEquivalence is the acceptance test at the network layer: a
// churn-free run through the server's live-subscribe path must hand every
// subscriber a byte stream identical to the wire encoding of a static
// in-process core.Run over the same group.
func TestNetworkedEquivalence(t *testing.T) {
	specs := []struct{ app, spec string }{
		{"A", "DC1(fluoro, 0.3, 0.15)"},
		{"B", "DC1(fluoro, 0.5, 0.25)"},
		{"C", "DC3(tmpr2, tmpr4, 0.2, 0.1)"},
	}
	sr := namosSeries(t, 600)

	// Static reference: the same filter group, same order, in process.
	var filters []filter.Filter
	for _, sp := range specs {
		parsed, err := quality.Parse(sp.spec)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parsed.Build(sp.app)
		if err != nil {
			t.Fatal(err)
		}
		filters = append(filters, f)
	}
	static, err := core.Run(filters, sr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := make(map[string][]byte)
	for _, tr := range static.Transmissions {
		var buf []byte
		buf, err = wire.AppendTransmission(buf, tr.Tuple, tr.Destinations)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range tr.Destinations {
			wantBytes[app] = append(wantBytes[app], buf...)
		}
	}

	// Networked run: subscribers join through the live path, in order,
	// before the publisher streams.
	s := startServer(t, Config{})
	addr := s.Addr().String()
	pub, err := DialPublisher(context.Background(), addr, "buoy", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscriber, len(specs))
	for i, sp := range specs {
		subs[i], err = DialSubscriber(context.Background(), addr, sp.app, "buoy", sp.spec, SubDialOpts{})
		if err != nil {
			t.Fatalf("subscribing %s: %v", sp.app, err)
		}
	}
	got := make([][]byte, len(specs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, d := range recvAll(t, subs[i]) {
				var buf []byte
				buf, err := wire.AppendTransmission(buf, d.Tuple, d.Destinations)
				if err != nil {
					t.Errorf("re-encoding: %v", err)
					return
				}
				got[i] = append(got[i], buf...)
			}
		}(i)
	}
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i, sp := range specs {
		if len(wantBytes[sp.app]) == 0 {
			t.Fatalf("degenerate case: static run delivered nothing to %s", sp.app)
		}
		if string(got[i]) != string(wantBytes[sp.app]) {
			t.Fatalf("subscriber %s stream differs from static run (%d vs %d bytes)",
				sp.app, len(got[i]), len(wantBytes[sp.app]))
		}
	}
}

// TestHandshakeRejections covers the handshake error surface.
func TestHandshakeRejections(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()
	sr := stepSeries(t, 1, 0)

	if _, err := DialSubscriber(context.Background(), addr, "A", "ghost", "DC1(v, 0.5, 0)", SubDialOpts{}); err == nil {
		t.Fatal("subscribing to unknown source succeeded")
	}
	pub, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0); err == nil {
		t.Fatal("duplicate source name succeeded")
	}
	if _, err := DialSubscriber(context.Background(), addr, "A", "src", "DC1(nope, 0.5, 0)", SubDialOpts{}); err == nil {
		t.Fatal("subscribing with unknown attribute succeeded")
	}
	if _, err := DialSubscriber(context.Background(), addr, "A", "src", "garbage", SubDialOpts{}); err == nil {
		t.Fatal("subscribing with malformed spec succeeded")
	}
	subA, err := DialSubscriber(context.Background(), addr, "A", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer subA.Close()
	if _, err := DialSubscriber(context.Background(), addr, "A", "src", "DC1(v, 0.5, 0)", SubDialOpts{}); err == nil {
		t.Fatal("duplicate app name succeeded")
	}
	if s.Counters().HandshakeRejects == 0 {
		t.Fatal("rejects not counted")
	}
}

// wideSeries builds n pass-all tuples over a 64-attribute schema, making
// each transmission ~0.5KiB so socket buffers fill quickly.
func wideSeries(t *testing.T, n int) *tuple.Series {
	t.Helper()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	s, err := tuple.NewSchema(names...)
	if err != nil {
		t.Fatal(err)
	}
	sr := tuple.NewSeries(s)
	base := time.Unix(1, 0)
	values := make([]float64, len(names))
	for i := 0; i < n; i++ {
		for j := range values {
			values[j] = float64(i)
		}
		tp, err := tuple.New(s, i, base.Add(time.Duration(i+1)*time.Millisecond), values)
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	return sr
}

// TestSlowConsumerDrop checks the drop policy: a subscriber that stops
// reading loses deliveries (counted) without stalling the publisher,
// while a fast subscriber with queue headroom receives everything.
func TestSlowConsumerDrop(t *testing.T) {
	n := 4000
	s := startServer(t, Config{
		Policy:       PolicyDrop,
		WriteTimeout: 500 * time.Millisecond,
	})
	addr := s.Addr().String()
	sr := wideSeries(t, n)

	pub, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The fast subscriber's queue holds the whole stream, so it can
	// never drop; the slow one's 4-slot queue overflows immediately.
	fast, err := DialSubscriber(context.Background(), addr, "fast", "src", "DC1(a0, 0.5, 0)", SubDialOpts{Queue: n + 16})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := DialSubscriber(context.Background(), addr, "slow", "src", "DC1(a0, 0.5, 0)", SubDialOpts{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The slow subscriber never reads: once its TCP window fills, the
	// server's writer hits WriteTimeout and the session is dropped; the
	// publisher must stay unaffected throughout.
	defer slow.Close()

	var fastGot []*session.Delivery
	done := make(chan struct{})
	go func() { defer close(done); fastGot = recvAll(t, fast) }()
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	if len(fastGot) != n {
		t.Fatalf("fast subscriber got %d deliveries, want %d", len(fastGot), n)
	}
	for i, d := range fastGot {
		if d.Tuple.Seq != i {
			t.Fatalf("fast subscriber delivery %d has seq %d", i, d.Tuple.Seq)
		}
	}
	c := s.Counters()
	if c.SubscriberDrops == 0 {
		t.Fatal("no drops counted for the slow subscriber")
	}
	t.Logf("slow subscriber dropped %d of %d deliveries", c.SubscriberDrops, n)
}

// TestSourceExpiry checks flow-gap detection: a publisher that goes
// silent is expired and its subscribers see a clean end of stream.
func TestSourceExpiry(t *testing.T) {
	s := startServer(t, Config{
		HeartbeatInterval: 50 * time.Millisecond,
		SourceTimeout:     200 * time.Millisecond,
	})
	addr := s.Addr().String()
	sr := stepSeries(t, 10, 0)

	pub, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := DialSubscriber(context.Background(), addr, "A", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Heartbeats hold the session open through one timeout window.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := pub.Heartbeat(context.Background()); err != nil {
			t.Fatalf("heartbeat rejected: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := s.Counters().SourcesExpired; got != 0 {
		t.Fatalf("source expired despite heartbeats (%d)", got)
	}
	// Then the publisher goes silent; the stream must end for the
	// subscriber with the tail delivered.
	got := recvAll(t, sub)
	if len(got) != sr.Len() {
		t.Fatalf("subscriber got %d deliveries, want %d", len(got), sr.Len())
	}
	if s.Counters().SourcesExpired != 1 {
		t.Fatalf("SourcesExpired = %d, want 1", s.Counters().SourcesExpired)
	}
}

// TestGracefulShutdown checks Shutdown flushes in-flight streams: every
// tuple published before Shutdown is delivered before the goodbye.
func TestGracefulShutdown(t *testing.T) {
	s, err := Start(Config{Logf: t.Logf, DrainGrace: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()
	n := 500
	sr := stepSeries(t, n, 0)
	pub, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := DialSubscriber(context.Background(), addr, "A", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var got []*session.Delivery
	done := make(chan struct{})
	go func() { defer close(done); got = recvAll(t, sub) }()
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if len(got) != n {
		t.Fatalf("subscriber got %d of %d deliveries across shutdown", len(got), n)
	}
}

// TestDrainGoodbyeTagged pins the two flavors of stream end apart: a
// source finishing yields plain ErrStreamEnded, while a server shutdown
// tags its goodbyes so both publisher and subscriber sessions surface
// ErrServerDraining (still wrapping ErrStreamEnded for callers that
// treat every graceful end alike). Reconnect-aware clients depend on
// the distinction to redial a restarted server instead of latching the
// end as final.
func TestDrainGoodbyeTagged(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A source-finish end must stay untagged.
	s1 := startServer(t, Config{})
	sr := stepSeries(t, 10, 0)
	pub1, err := DialPublisher(context.Background(), s1.Addr().String(), "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := DialSubscriber(context.Background(), s1.Addr().String(), "A", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub1, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub1.Close(); err != nil {
		t.Fatal(err)
	}
	for {
		_, err := recvOne(sub1)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrStreamEnded) {
			t.Fatalf("finish end: %v, want ErrStreamEnded", err)
		}
		if errors.Is(err, ErrServerDraining) {
			t.Fatalf("finish end tagged as server drain: %v", err)
		}
		break
	}

	// A shutdown-forced end must be tagged on both session kinds.
	s2, err := Start(Config{Logf: t.Logf, DrainGrace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Shutdown(ctx) })
	pub, err := DialPublisher(context.Background(), s2.Addr().String(), "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := DialSubscriber(context.Background(), s2.Addr().String(), "A", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Sync(ctx); err != nil {
		t.Fatalf("pre-shutdown sync: %v", err)
	}
	subErr := make(chan error, 1)
	go func() {
		for {
			if _, err := recvOne(sub2); err != nil {
				subErr <- err
				return
			}
		}
	}()
	shutDone := make(chan struct{})
	go func() { defer close(shutDone); s2.Shutdown(ctx) }()
	// The shutdown goodbye is queued ahead of any later pong, so the
	// first Sync to read past it sees the tag.
	var syncErr error
	for syncErr == nil {
		syncErr = pub.Sync(ctx)
		time.Sleep(2 * time.Millisecond)
	}
	if !errors.Is(syncErr, ErrServerDraining) || !errors.Is(syncErr, ErrStreamEnded) {
		t.Fatalf("publisher sync across shutdown: %v, want ErrServerDraining wrapping ErrStreamEnded", syncErr)
	}
	select {
	case err := <-subErr:
		if !errors.Is(err, ErrServerDraining) || !errors.Is(err, ErrStreamEnded) {
			t.Fatalf("subscriber end across shutdown: %v, want ErrServerDraining wrapping ErrStreamEnded", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("subscriber stream never ended across shutdown")
	}
	<-shutDone
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMetricsEndpoints exercises /metrics and /healthz.
func TestMetricsEndpoints(t *testing.T) {
	s := startServer(t, Config{})
	sr := stepSeries(t, 20, 0)
	publishSeries(t, s.Addr().String(), "src", sr)
	waitFor(t, "source to finish", func() bool { return s.Counters().SourcesFinished == 1 })

	h := s.MetricsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"gasf_tuples_in_total 20",
		"gasf_sources_finished_total 1",
		"gasf_shard_processed_total",
		"# TYPE gasf_sources_active gauge",
		"# TYPE gasf_tuples_in_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
}

// TestPublisherTimestampValidation checks the server rejects
// non-monotonic source streams with a protocol error.
func TestPublisherTimestampValidation(t *testing.T) {
	s := startServer(t, Config{})
	sr := stepSeries(t, 2, 0)
	pub, err := DialPublisher(context.Background(), s.Addr().String(), "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// The client itself refuses disorder.
	if err := publishOne(pub, sr.At(1)); err != nil {
		t.Fatal(err)
	}
	if err := publishOne(pub, sr.At(0)); err == nil {
		t.Fatal("client accepted a timestamp regression")
	}
}
