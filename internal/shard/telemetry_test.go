package shard

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/telemetry"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// dc1Workload is a NAMOS trace of n tuples shared by `sources` groups of
// three DC1 filters on tmpr4, their deltas spread 1×, 1.37× and 1.74×
// the mean absolute change, each with half its delta as slack.
func dc1Workload(t *testing.T, sources, n int) (*tuple.Series, [][]filter.Filter) {
	t.Helper()
	sr, err := trace.NAMOS(trace.Config{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := sr.MeanAbsChange("tmpr4")
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]filter.Filter, sources)
	for s := range groups {
		for i := 0; i < 3; i++ {
			mult := 1 + float64(i)*0.37
			f, err := filter.NewDC1(fmt.Sprintf("app%d", i+1), "tmpr4", mult*stat, 0.5*mult*stat)
			if err != nil {
				t.Fatal(err)
			}
			groups[s] = append(groups[s], f)
		}
	}
	return sr, groups
}

// TestTelemetryAllocOverhead gates the cost of the stage-timing
// instrumentation on the shard hot path: a full run with telemetry
// sampling EVERY tuple (period 1, far hotter than the production
// default of 64) must not add measurably to the per-tuple allocation
// count of an uninstrumented run. The stamps and histogram updates are
// designed alloc-free; this catches a regression that reintroduces
// boxing or time.Time churn in the worker loop.
func TestTelemetryAllocOverhead(t *testing.T) {
	const tuples = 2000
	run := func(tel *telemetry.Pipeline) float64 {
		sr, groups := dc1Workload(t, 1, tuples)
		rt := New(Config{Shards: 1, Telemetry: tel})
		if err := rt.AddGroup("src", groups[0], core.Options{Algorithm: core.RG}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := rt.FeedAll(map[string]*tuple.Series{"src": sr}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / tuples
	}
	// Take the best of a few runs per configuration: GC timing and
	// pool refills add run-to-run noise in both directions.
	best := func(tel func() *telemetry.Pipeline) float64 {
		m := run(tel())
		for i := 0; i < 2; i++ {
			if v := run(tel()); v < m {
				m = v
			}
		}
		return m
	}
	off := best(func() *telemetry.Pipeline { return nil })
	on := best(func() *telemetry.Pipeline { return telemetry.New(1) })
	t.Logf("allocs/tuple: telemetry off %.2f, on %.2f", off, on)
	if on > off+1.0 {
		t.Fatalf("telemetry adds %.2f allocs/tuple (off %.2f, on %.2f), budget 1.0", on-off, off, on)
	}
}

// TestTelemetryStageTiming checks the wiring end to end: with sampling
// on every event, a run must land observations in both shard-side stage
// histograms (ring residency and engine step).
func TestTelemetryStageTiming(t *testing.T) {
	tel := telemetry.New(1)
	sr, groups := dc1Workload(t, 2, 100)
	rt := New(Config{Shards: 2, Telemetry: tel})
	series := make(map[string]*tuple.Series)
	for i, g := range groups {
		name := fmt.Sprintf("src%d", i)
		if err := rt.AddGroup(name, g, core.Options{Algorithm: core.RG}); err != nil {
			t.Fatal(err)
		}
		series[name] = sr
	}
	if err := rt.Start(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.FeedAll(series); err != nil {
		t.Fatal(err)
	}
	for _, st := range []telemetry.Stage{telemetry.StageRingWait, telemetry.StageEngineStep} {
		if n := tel.StageHist(st).Snapshot().Count; n == 0 {
			t.Errorf("stage %s recorded no observations", st.Name())
		}
	}
}
