package core

import (
	"fmt"
	"testing"
	"time"

	"gasf/internal/filter"
	"gasf/internal/quality"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// group12 builds the mixed 12-filter group of the benchmark's
// embedded_group workload over a seeded NAMOS trace: quality.Table52
// groups G3 (DC1), G5[:2] (DC3), G6[:2] (DC2) and G7 (sampling) plus two
// stateful filters on G3's deltas, with slack = delta/4 and 250 ms
// sampling segments. It returns the trace and a builder of fresh groups.
func group12(tb testing.TB, n int, seed int64) (*tuple.Series, func() []filter.Filter) {
	tb.Helper()
	sr, err := trace.NAMOS(trace.Config{N: n, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	groups, err := quality.Table52(sr, 52)
	if err != nil {
		tb.Fatal(err)
	}
	var specs []quality.Spec
	specs = append(specs, groups[2].Specs...)
	specs = append(specs, groups[4].Specs[:2]...)
	specs = append(specs, groups[5].Specs[:2]...)
	specs = append(specs, groups[6].Specs...)
	for _, sp := range groups[2].Specs[:2] {
		sp.Kind = quality.SDC
		specs = append(specs, sp)
	}
	for i := range specs {
		if specs[i].Kind == quality.SS {
			specs[i].Interval = 250 * time.Millisecond
		} else {
			specs[i].Slack = specs[i].Delta / 4
		}
	}
	return sr, func() []filter.Filter {
		out := make([]filter.Filter, len(specs))
		for i, sp := range specs {
			f, err := sp.Build(fmt.Sprintf("app%02d", i))
			if err != nil {
				tb.Fatal(err)
			}
			out[i] = f
		}
		return out
	}
}

// TestStepAllocsBounded is the allocation regression gate for the engine
// hot path (DESIGN.md §8): a full run, engine construction and Finish
// included, must stay within a small per-tuple allocation budget on the
// single-kind DC1 trace and on the mixed 12-filter group, whose many
// pending sets and multi-owner picks the DC1 trace never produces. What
// a run may allocate is the growth of its result's slices, one destination
// list per owner set it has not used before, and scratch growing to its
// working size (measured: 0.12 per Step on DC1x3, 0.43 RG and 0.52 PS on
// mixed12); a change that reintroduces per-step or per-transmission map,
// list, set or scratch churn trips this long before it shows in
// wall-clock benchmarks.
func TestStepAllocsBounded(t *testing.T) {
	dc1, err := trace.NAMOS(trace.Config{N: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := dc1.MeanAbsChange("fluoro")
	if err != nil {
		t.Fatal(err)
	}
	buildDC1 := func() []filter.Filter {
		out := make([]filter.Filter, 3)
		for i := range out {
			mult := 1 + float64(i)*0.37
			f, err := filter.NewDC1(string(rune('A'+i)), "fluoro", mult*stat, 0.5*mult*stat)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = f
		}
		return out
	}
	mixed, buildMixed := group12(t, 10000, 5000)
	for _, c := range []struct {
		name   string
		sr     *tuple.Series
		build  func() []filter.Filter
		budget float64 // allocations per Step
	}{
		{"DC1x3", dc1, buildDC1, 0.3},
		{"mixed12", mixed, buildMixed, 0.6},
	} {
		for _, alg := range []Algorithm{RG, PS} {
			avg := testing.AllocsPerRun(3, func() {
				e, err := NewEngine(c.build(), Options{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < c.sr.Len(); i++ {
					if err := e.Step(c.sr.At(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Finish(); err != nil {
					t.Fatal(err)
				}
			})
			perStep := avg / float64(c.sr.Len())
			t.Logf("%s %v: %.3f allocs per Step", c.name, alg, perStep)
			if perStep > c.budget {
				t.Errorf("%s %v: %.2f allocs per Step, budget %.1f", c.name, alg, perStep, c.budget)
			}
		}
	}
}

// BenchmarkStepGroup12 steps the mixed 12-filter group one tuple per
// iteration, so ns/op and allocs/op are the benchmark harness's
// core.step_ns_per_tuple and core.allocs_per_tuple on embedded_group;
// pending-sets/op is the mean number of closed sets the region tracker
// holds after a Step.
func BenchmarkStepGroup12(b *testing.B) {
	sr, build := group12(b, 10000, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	pending := 0
	for done := 0; done < b.N; {
		b.StopTimer()
		e, err := NewEngine(build(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i := 0; i < sr.Len() && done < b.N; i, done = i+1, done+1 {
			if err := e.Step(sr.At(i)); err != nil {
				b.Fatal(err)
			}
			pending += e.tracker.PendingSets()
		}
	}
	b.ReportMetric(float64(pending)/float64(b.N), "pending-sets/op")
}

// TestSeqCounts covers the generational utility index directly, including
// rebase-on-empty, prefix reclamation and the defensive rewind path.
func TestSeqCounts(t *testing.T) {
	var u seqCounts
	if u.Len() != 0 || u.get(0) != 0 {
		t.Fatal("zero value not empty")
	}
	u.inc(100)
	u.inc(100)
	u.inc(101)
	if u.get(100) != 2 || u.get(101) != 1 || u.Len() != 2 {
		t.Fatalf("counts %d/%d len %d", u.get(100), u.get(101), u.Len())
	}
	u.dec(100)
	u.dec(100)
	if u.get(100) != 0 || u.Len() != 1 {
		t.Fatalf("after drain: %d len %d", u.get(100), u.Len())
	}
	// Deleting an absent seq is a no-op, as with the old map.
	u.dec(50)
	u.dec(100)
	if u.Len() != 1 {
		t.Fatal("no-op decs changed length")
	}
	u.dec(101)
	if u.Len() != 0 {
		t.Fatal("index not empty after draining all")
	}
	// Rebase after empty: a much larger seq must not grow the window.
	u.inc(1 << 20)
	if u.Len() != 1 || u.get(1<<20) != 1 || len(u.buf) != 1 {
		t.Fatalf("rebase failed: len %d count %d buf %d", u.Len(), u.get(1<<20), len(u.buf))
	}
	// Defensive rewind below the base goes to the sparse overflow.
	u.inc(1<<20 - 3)
	if u.get(1<<20-3) != 1 || u.get(1<<20) != 1 || u.Len() != 2 {
		t.Fatalf("rewind lost counts: %d %d len %d", u.get(1<<20-3), u.get(1<<20), u.Len())
	}
	u.dec(1<<20 - 3)
	if u.get(1<<20-3) != 0 || u.Len() != 1 {
		t.Fatalf("overflow drain failed: %d len %d", u.get(1<<20-3), u.Len())
	}
	// A far-ahead sequence (sparse or adversarial numbering) must not
	// grow the dense window proportionally to the gap.
	var sp seqCounts
	sp.inc(0)
	sp.inc(1 << 40)
	sp.inc(1 << 40)
	if len(sp.buf) > maxDenseSpan {
		t.Fatalf("sparse inc grew the dense window to %d slots", len(sp.buf))
	}
	if sp.get(0) != 1 || sp.get(1<<40) != 2 || sp.Len() != 2 {
		t.Fatalf("sparse counts wrong: %d %d len %d", sp.get(0), sp.get(1<<40), sp.Len())
	}
	sp.dec(1 << 40)
	sp.dec(1 << 40)
	sp.dec(0)
	if sp.Len() != 0 {
		t.Fatalf("sparse drain left %d entries", sp.Len())
	}
	// A long advancing stream keeps the buffer near the live window.
	var w seqCounts
	for i := 0; i < 100000; i++ {
		w.inc(i)
		if i >= 8 {
			w.dec(i - 8)
		}
	}
	if w.Len() != 8 {
		t.Fatalf("live window %d, want 8", w.Len())
	}
	if len(w.buf)-w.head > 4096 {
		t.Fatalf("window storage %d slots for 8 live entries; prefix not reclaimed", len(w.buf)-w.head)
	}
}
