package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gasf/internal/filter"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// randomWalk builds a bounded random walk series with dwell segments, the
// regime where candidate sets have interesting shapes.
func randomWalk(seed int64, n int) *tuple.Series {
	s := tuple.MustSchema("v")
	sr := tuple.NewSeries(s)
	rng := rand.New(rand.NewSource(seed))
	v, drift := 0.0, 0.0
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.05 {
			drift = (rng.Float64()*2 - 1) * 2
		}
		v += drift + 0.3*(rng.Float64()*2-1)
		t := tuple.MustNew(s, i, trace.Epoch.Add(time.Duration(i)*trace.DefaultInterval), []float64{v})
		if err := sr.Append(t); err != nil {
			panic(err)
		}
	}
	return sr
}

// randomGroup builds 2-5 DC filters with random deltas and slacks.
func randomGroup(rng *rand.Rand) []filter.Filter {
	n := 2 + rng.Intn(4)
	out := make([]filter.Filter, 0, n)
	for i := 0; i < n; i++ {
		delta := 1 + rng.Float64()*8
		slack := rng.Float64() * delta / 2
		f, err := filter.NewDC1(string(rune('A'+i)), "v", delta, slack)
		if err != nil {
			panic(err)
		}
		out = append(out, f)
	}
	return out
}

// TestEngineInvariantsProperty drives random groups over random walks under
// every algorithm/strategy/cut combination and checks the engine's global
// invariants:
//
//  1. GA distinct outputs <= SI distinct outputs (the bottom line);
//  2. per-filter delivery counts equal the SI baseline's (one output per
//     owed reference — completeness);
//  3. utilities and decision state drain to zero at Finish;
//  4. no latency sample is negative;
//  5. transmissions are released in non-decreasing time order.
func TestEngineInvariantsProperty(t *testing.T) {
	combos := []Options{
		{Algorithm: RG},
		{Algorithm: RG, Cuts: true, MaxDelay: 50 * time.Millisecond},
		{Algorithm: RG, Strategy: Batched, BatchSize: 64},
		{Algorithm: PS},
		{Algorithm: PS, Strategy: PerCandidateSet},
		{Algorithm: PS, Cuts: true, MaxDelay: 50 * time.Millisecond, Strategy: PerCandidateSet},
	}
	check := func(seed int64, comboIdx uint8) bool {
		opts := combos[int(comboIdx)%len(combos)]
		sr := randomWalk(seed, 500)
		rng := rand.New(rand.NewSource(seed + 7))
		filters := randomGroup(rng)

		e, err := NewEngine(filters, opts)
		if err != nil {
			return false
		}
		for i := 0; i < sr.Len(); i++ {
			if err := e.Step(sr.At(i)); err != nil {
				return false
			}
		}
		if err := e.Finish(); err != nil {
			return false
		}
		res := e.Result()

		// Rebuild an identical group for the baseline.
		rng2 := rand.New(rand.NewSource(seed + 7))
		si, err := RunSelfInterested(randomGroupFrom(rng2), sr, Options{})
		if err != nil {
			return false
		}
		if res.Stats.DistinctOutputs > si.Stats.DistinctOutputs {
			return false
		}
		for id, n := range si.Stats.PerFilter {
			if res.Stats.PerFilter[id] != n {
				return false
			}
		}
		if e.util.Len() != 0 || e.tracker.PendingSets() != 0 {
			return false
		}
		for _, l := range res.Stats.Latencies {
			if l < 0 {
				return false
			}
		}
		for i := 1; i < len(res.Transmissions); i++ {
			if res.Transmissions[i].ReleasedAt.Before(res.Transmissions[i-1].ReleasedAt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomGroupFrom mirrors randomGroup for baseline reconstruction.
func randomGroupFrom(rng *rand.Rand) []filter.Filter { return randomGroup(rng) }

// TestSSTopPrescriptionAtEngine: a Top-restricted sampler only ever
// receives its top-valued tuples, even when coordinated.
func TestSSTopPrescriptionAtEngine(t *testing.T) {
	sr := randomWalk(3, 600)
	top, err := filter.NewSS("top", "v", time.Second, 0, 20, 10, filter.Top)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := filter.NewDC1("dc", "v", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]filter.Filter{top, dc}, sr, Options{Algorithm: RG})
	if err != nil {
		t.Fatal(err)
	}
	// Verify every delivery to "top" is among the top-20% values of its
	// 100-tuple segment.
	for _, tr := range res.Transmissions {
		for _, d := range tr.Destinations {
			if d != "top" {
				continue
			}
			seg := tr.Tuple.Seq / 100
			lo, hi := seg*100, (seg+1)*100
			if hi > sr.Len() {
				hi = sr.Len()
			}
			better := 0
			for i := lo; i < hi; i++ {
				if sr.At(i).ValueAt(0) > tr.Tuple.ValueAt(0) {
					better++
				}
			}
			// PickDegree is 10-20% of the segment; ties may extend
			// eligibility slightly. Allow the boundary.
			if better > (hi-lo)*25/100 {
				t.Errorf("tuple %d delivered to top-sampler ranks %d/%d in its segment",
					tr.Tuple.Seq, better, hi-lo)
			}
		}
	}
}

// TestChosenHorizonPruning: PS's first heuristic forgets chosen tuples
// beyond the horizon, bounding memory.
func TestChosenHorizonPruning(t *testing.T) {
	sr := randomWalk(5, 2000)
	f1, err := filter.NewDC1("A", "v", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := filter.NewDC1("B", "v", 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine([]filter.Filter{f1, f2}, Options{
		Algorithm:     PS,
		ChosenHorizon: 200 * time.Millisecond, // 20 tuples
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sr.Len(); i++ {
		if err := e.Step(sr.At(i)); err != nil {
			t.Fatal(err)
		}
		if len(e.chosen) > 256 {
			t.Fatalf("chosen memory grew to %d entries at step %d", len(e.chosen), i)
		}
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestMixedKindsGroup: DC1, DC2, DC3, SS and stateful DC coexist in one
// group under both algorithms without losing anyone's deliveries.
func TestMixedKindsGroup(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 1500, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := sr.MeanAbsChange("tmpr4")
	if err != nil {
		t.Fatal(err)
	}
	build := func() []filter.Filter {
		dc1, _ := filter.NewDC1("dc1", "tmpr4", 2*stat, stat)
		dc2, _ := filter.NewDC2("dc2", "fluoro", 100, 50, time.Second)
		dc3, _ := filter.NewDC3("dc3", []string{"tmpr2", "tmpr4", "tmpr6"}, 2*stat, stat)
		ss, _ := filter.NewSS("ss", "tmpr4", time.Second, 10*stat, 40, 15, filter.Random)
		sdc, _ := filter.NewStatefulDC("sdc", "tmpr4", 2*stat, stat)
		return []filter.Filter{dc1, dc2, dc3, ss, sdc}
	}
	for _, alg := range []Algorithm{RG, PS} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(build(), sr, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"dc1", "dc2", "dc3", "ss", "sdc"} {
				if res.Stats.PerFilter[id] == 0 {
					t.Errorf("filter %s received nothing", id)
				}
			}
			si, err := RunSelfInterested(build(), sr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.DistinctOutputs > si.Stats.DistinctOutputs {
				t.Errorf("GA %d > SI %d", res.Stats.DistinctOutputs, si.Stats.DistinctOutputs)
			}
		})
	}
}

// TestCutBudgetHonored: with RG cuts at budget B and multicast delay 0, no
// delivery waits substantially longer than B plus one tuple interval (the
// cut check granularity).
func TestCutBudgetHonored(t *testing.T) {
	sr := randomWalk(9, 1500)
	f1, err := filter.NewDC1("A", "v", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := filter.NewDC1("B", "v", 7, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	budget := 60 * time.Millisecond
	res, err := Run([]filter.Filter{f1, f2}, sr, Options{Algorithm: RG, Cuts: true, MaxDelay: budget})
	if err != nil {
		t.Fatal(err)
	}
	slackAllowance := budget + 3*trace.DefaultInterval
	for i, l := range res.Stats.Latencies {
		if l > slackAllowance {
			t.Fatalf("delivery %d latency %v exceeds budget %v (+allowance)", i, l, budget)
		}
	}
}
