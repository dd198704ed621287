package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gasf/internal/telemetry"
)

// get issues one request against the server's metrics mux and returns
// the response code and body.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestMetricsStrictExposition runs live traffic through a server with
// stage timing sampled on every event, then parses the complete
// /metrics output with the strict exposition validator — the
// regression test for the historical bug where shard series were
// emitted with no HELP/TYPE metadata. It also pins that the telemetry
// families (stage histograms, delivery summaries, per-group summaries)
// are present and populated.
func TestMetricsStrictExposition(t *testing.T) {
	s := startServer(t, Config{TelemetrySampleEvery: 1})
	addr := s.Addr().String()
	sr := stepSeries(t, 200, 0)

	pub, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := DialSubscriber(context.Background(), addr, "A", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Scrape while the source session is still connected: the
	// per-group latency series exists for live sources. The engine may
	// hold back the final tuple until end-of-stream, so wait for all
	// but the last delivery — and wait for it on the writer's side:
	// DeliveriesOut counts the sink's enqueue, while the latency summary
	// asserted below is fed only once the writer has written the frame.
	waitFor(t, "deliveries to be written", func() bool {
		return s.Telemetry().Delivery().Snapshot().Count >= uint64(sr.Len()-1)
	})

	code, body := get(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if err := telemetry.Validate([]byte(body)); err != nil {
		t.Fatalf("/metrics output failed strict validation: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE gasf_shard_enqueued_total counter",
		"# TYPE gasf_stage_duration_seconds histogram",
		`gasf_stage_duration_seconds_bucket{stage="engine_step",le="+Inf"}`,
		"# TYPE gasf_delivery_latency_seconds summary",
		`gasf_delivery_latency_seconds{policy="block",quantile="0.5"}`,
		"# TYPE gasf_group_delivery_latency_seconds summary",
		`gasf_group_delivery_latency_seconds_count{source="src"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
	// With sampling on every event and 200 delivered tuples, the
	// delivery summary cannot be empty.
	if !strings.Contains(body, "gasf_delivery_latency_seconds_count") ||
		strings.Contains(body, `gasf_delivery_latency_seconds_count{policy="block"} 0`) {
		t.Error("delivery latency summary recorded no samples")
	}

	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, sub); len(got) != sr.Len() {
		t.Fatalf("subscriber got %d deliveries, want %d", len(got), sr.Len())
	}
}

// TestReadyzDrainWindow is the drain-window regression test: once a
// graceful Shutdown begins, /readyz must flip to 503 "draining" for the
// whole drain window (so a load balancer stops routing) while /healthz
// keeps answering 200 (the process is alive and draining, not dead).
func TestReadyzDrainWindow(t *testing.T) {
	s, err := Start(Config{Logf: t.Logf, DrainGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sr := stepSeries(t, 1, 0)
	// A connected publisher holds the drain window open: Shutdown
	// waits up to DrainGrace for it to finish.
	pub, err := DialPublisher(context.Background(), s.Addr().String(), "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if code, body := get(t, s, "/readyz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("readyz before drain: %d %q", code, body)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, "readyz to report draining", func() bool {
		code, body := get(t, s, "/readyz")
		return code == 503 && strings.Contains(body, "draining")
	})
	// Liveness must not flip during the drain window.
	if code, body := get(t, s, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz during drain: %d %q", code, body)
	}
	pub.Close()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Still draining after shutdown completes: the flag is one-way.
	if code, _ := get(t, s, "/readyz"); code != 503 {
		t.Fatalf("readyz after shutdown: %d, want 503", code)
	}
}

// TestDebugEndpoint checks /debug/gasf serves a well-formed JSON dump
// of the live introspection state: sessions, counters, shard snapshots,
// and the telemetry quantiles.
func TestDebugEndpoint(t *testing.T) {
	s := startServer(t, Config{TelemetrySampleEvery: 1})
	addr := s.Addr().String()
	sr := stepSeries(t, 50, 0)
	pub, err := DialPublisher(context.Background(), addr, "src", sr.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := DialSubscriber(context.Background(), addr, "A", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for i := 0; i < sr.Len(); i++ {
		if err := publishOne(pub, sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "tuples to be ingested", func() bool { return s.Counters().TuplesIn == uint64(sr.Len()) })

	code, body := get(t, s, "/debug/gasf")
	if code != 200 {
		t.Fatalf("/debug/gasf status %d", code)
	}
	var info DebugInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("debug payload not valid JSON: %v\n%s", err, body)
	}
	if info.Addr == "" || info.Policy == "" {
		t.Fatalf("debug payload missing addr/policy: %+v", info)
	}
	if info.Draining {
		t.Fatal("debug payload reports draining on a live server")
	}
	if len(info.Sources) != 1 || info.Sources[0].Name != "src" {
		t.Fatalf("debug sources %+v, want one named src", info.Sources)
	}
	if len(info.Subscribers) != 1 || info.Subscribers[0].App != "A" {
		t.Fatalf("debug subscribers %+v, want one app A", info.Subscribers)
	}
	if len(info.Shards) == 0 {
		t.Fatal("debug payload has no shard snapshots")
	}
	if info.Counters.TuplesIn != uint64(sr.Len()) {
		t.Fatalf("debug counters TuplesIn %d, want %d", info.Counters.TuplesIn, sr.Len())
	}
	if info.Telemetry == nil {
		t.Fatal("debug payload missing telemetry snapshot")
	}
	if info.Telemetry.SampleEvery != 1 {
		t.Fatalf("telemetry sample period %d, want 1", info.Telemetry.SampleEvery)
	}
}
