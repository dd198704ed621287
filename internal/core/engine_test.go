package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"gasf/internal/filter"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// paperFilters builds the three DC filters of the running example:
// A = (10, 50), B = (5, 40), C = (25, 80) on attribute "temperature".
func paperFilters(t *testing.T) []filter.Filter {
	t.Helper()
	a, err := filter.NewDC1("A", "temperature", 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := filter.NewDC1("B", "temperature", 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := filter.NewDC1("C", "temperature", 80, 25)
	if err != nil {
		t.Fatal(err)
	}
	return []filter.Filter{a, b, c}
}

// renderTransmissions formats transmissions compactly for comparison:
// "value->{dests}@slot" with slot the 1-based release position.
func renderTransmissions(trs []Transmission) []string {
	out := make([]string, 0, len(trs))
	for _, tr := range trs {
		slot := int(tr.ReleasedAt.Sub(trace.Epoch)/trace.DefaultInterval) + 1
		out = append(out, fmt.Sprintf("%g->{%s}@%d", tr.Tuple.ValueAt(0), strings.Join(tr.Destinations, ","), slot))
	}
	return out
}

func wantTransmissions(t *testing.T, got []Transmission, want []string) {
	t.Helper()
	rendered := renderTransmissions(got)
	if len(rendered) != len(want) {
		t.Fatalf("transmissions = %v, want %v", rendered, want)
	}
	for i := range want {
		if rendered[i] != want[i] {
			t.Errorf("transmission %d = %s, want %s", i, rendered[i], want[i])
		}
	}
}

// TestFig28RegionBasedGreedy reproduces Fig 2.8 end to end: region 1 emits
// 0->{A,B,C} at slot 2; region 2 emits 100->{A,B,C} and 50->{A,B} at
// slot 10.
func TestFig28RegionBasedGreedy(t *testing.T) {
	res, err := Run(paperFilters(t), trace.PaperExample(), Options{Algorithm: RG})
	if err != nil {
		t.Fatal(err)
	}
	wantTransmissions(t, res.Transmissions, []string{
		"0->{A,B,C}@2",
		"50->{A,B}@10",
		"100->{A,B,C}@10",
	})
	if res.Stats.DistinctOutputs != 3 {
		t.Errorf("distinct outputs = %d, want 3", res.Stats.DistinctOutputs)
	}
	if res.Stats.Regions != 2 {
		t.Errorf("regions = %d, want 2", res.Stats.Regions)
	}
	if res.Stats.RegionsCut != 0 {
		t.Errorf("cut regions = %d, want 0", res.Stats.RegionsCut)
	}
}

// TestFig211PerCandidateSetGreedy reproduces Fig 2.11: with the
// per-candidate-set output strategy, outputs appear as each set closes:
// 0->{A,B,C}@2, 50->{B}@6, 50->{A}@7, 100->{A,B,C}@10.
func TestFig211PerCandidateSetGreedy(t *testing.T) {
	res, err := Run(paperFilters(t), trace.PaperExample(),
		Options{Algorithm: PS, Strategy: PerCandidateSet})
	if err != nil {
		t.Fatal(err)
	}
	wantTransmissions(t, res.Transmissions, []string{
		"0->{A,B,C}@2",
		"50->{B}@6",
		"50->{A}@7",
		"100->{A,B,C}@10",
	})
	// The union is still 3 distinct tuples (0, 50, 100).
	if res.Stats.DistinctOutputs != 3 {
		t.Errorf("distinct outputs = %d, want 3", res.Stats.DistinctOutputs)
	}
}

// TestFig34RegionGreedyWithCut reproduces Fig 3.4: a cut right after
// tuple 80 (slot 7) closes region 2 early; greedy picks 59->{A,C} and
// 50->{B}; the final sets then produce 100->{A,B}.
func TestFig34RegionGreedyWithCut(t *testing.T) {
	// Region span at slot 7: tuples 45(slot 4)..80(slot 7) = 30ms.
	// A 30ms budget triggers the cut exactly there and not earlier:
	// at slot 6 the span is 45..59 = 20ms.
	res, err := Run(paperFilters(t), trace.PaperExample(),
		Options{Algorithm: RG, Cuts: true, MaxDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	wantTransmissions(t, res.Transmissions, []string{
		"0->{A,B,C}@2",
		"50->{B}@7",
		"59->{A,C}@7",
		"100->{A,B}@10",
	})
	if res.Stats.RegionsCut == 0 {
		t.Error("expected at least one cut region")
	}
}

// TestFig35PerCandidateSetWithCut reproduces Fig 3.5: filter C's long set
// is cut at slot 9 and chooses 97 (highest utility); A and B then follow
// via the first heuristic at slot 10.
func TestFig35PerCandidateSetWithCut(t *testing.T) {
	// C's open set starts at 59 (slot 6). At slot 9 its age is 30ms.
	res, err := Run(paperFilters(t), trace.PaperExample(),
		Options{Algorithm: PS, Strategy: PerCandidateSet, Cuts: true, MaxDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	wantTransmissions(t, res.Transmissions, []string{
		"0->{A,B,C}@2",
		"50->{B}@6",
		"50->{A}@7",
		"97->{C}@9",
		"97->{A,B}@10",
	})
}

// TestGroupAwareNeverWorseThanSelfInterested: the paper's bottom-line
// guarantee — GA distinct outputs never exceed SI outputs — checked on the
// NAMOS trace for all four algorithm variants.
func TestGroupAwareNeverWorseThanSelfInterested(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 3000, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	mkFilters := func() []filter.Filter {
		f1, _ := filter.NewDC1("f1", "fluoro", 0.10, 0.05)
		f2, _ := filter.NewDC1("f2", "fluoro", 0.22, 0.10)
		f3, _ := filter.NewDC1("f3", "fluoro", 0.16, 0.08)
		return []filter.Filter{f1, f2, f3}
	}
	si, err := RunSelfInterested(mkFilters(), sr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]Options{
		"RG":   {Algorithm: RG},
		"RG+C": {Algorithm: RG, Cuts: true, MaxDelay: 100 * time.Millisecond},
		"PS":   {Algorithm: PS},
		"PS+C": {Algorithm: PS, Cuts: true, MaxDelay: 100 * time.Millisecond},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			res, err := Run(mkFilters(), sr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.DistinctOutputs > si.Stats.DistinctOutputs {
				t.Errorf("GA outputs %d > SI outputs %d", res.Stats.DistinctOutputs, si.Stats.DistinctOutputs)
			}
			if res.Stats.DistinctOutputs == 0 {
				t.Error("no outputs produced")
			}
			// Per-filter delivery counts must match SI per-filter
			// counts: one output per owed reference.
			for id, n := range si.Stats.PerFilter {
				if got := res.Stats.PerFilter[id]; got != n {
					t.Errorf("filter %s deliveries = %d, want %d", id, got, n)
				}
			}
		})
	}
}

// TestOutputsSatisfyEveryFilter verifies quality: for each filter, the
// delivered tuples form a valid (slack, delta) compression of the input —
// each delivered tuple is within slack of the corresponding SI reference.
func TestOutputsSatisfyEveryFilter(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 2000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string][2]float64{ // id -> {delta, slack}
		"f1": {0.046, 0.0153},
		"f2": {0.031, 0.0103},
		"f3": {0.062, 0.031},
	}
	for _, alg := range []Algorithm{RG, PS} {
		t.Run(alg.String(), func(t *testing.T) {
			var filters []filter.Filter
			for _, id := range []string{"f1", "f2", "f3"} {
				f, err := filter.NewDC1(id, "tmpr4", specs[id][0], specs[id][1])
				if err != nil {
					t.Fatal(err)
				}
				filters = append(filters, f)
			}
			res, err := Run(filters, sr, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			// Reconstruct per-filter delivered streams.
			perFilter := make(map[string][]*tuple.Tuple)
			for _, tr := range res.Transmissions {
				for _, d := range tr.Destinations {
					perFilter[d] = append(perFilter[d], tr.Tuple)
				}
			}
			for id, spec := range specs {
				got := perFilter[id]
				sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
				// Compute the SI reference stream for this spec.
				f, err := filter.NewDC1(id, "tmpr4", spec[0], spec[1])
				if err != nil {
					t.Fatal(err)
				}
				var refs []*tuple.Tuple
				si := f.SelfInterested()
				for i := 0; i < sr.Len(); i++ {
					refs = append(refs, si.Process(sr.At(i))...)
				}
				if len(got) != len(refs) {
					t.Fatalf("filter %s: %d deliveries, %d references", id, len(got), len(refs))
				}
				for i := range refs {
					rv, _ := refs[i].Value("tmpr4")
					gv, _ := got[i].Value("tmpr4")
					if d := gv - rv; d > spec[1]+1e-9 || d < -spec[1]-1e-9 {
						t.Errorf("filter %s delivery %d: value %g is %.4g from reference %g (slack %g)",
							id, i, gv, d, rv, spec[1])
					}
				}
			}
		})
	}
}

// TestUtilitiesDrainToZero: after Finish, the group-utility table must be
// empty — every admission was balanced by a dismissal or a set decision.
func TestUtilitiesDrainToZero(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{RG, PS} {
		f1, _ := filter.NewDC1("f1", "tmpr2", 0.046, 0.023)
		f2, _ := filter.NewDC1("f2", "tmpr2", 0.092, 0.046)
		e, err := NewEngine([]filter.Filter{f1, f2}, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sr.Len(); i++ {
			if err := e.Step(sr.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		if e.util.Len() != 0 {
			t.Errorf("%v: %d utility entries leaked", alg, e.util.Len())
		}
		// Decision state rides on the sets, so it leaks only with a set.
		if n := e.tracker.PendingSets(); n != 0 {
			t.Errorf("%v: %d sets, and their decision state, left pending", alg, n)
		}
	}
}

// TestLatencyModel: with the default strategy, SI latency equals the
// multicast constant while RG latency adds the region wait.
func TestLatencyModel(t *testing.T) {
	const mc = 12 * time.Millisecond
	sr := trace.PaperExample()
	si, err := RunSelfInterested(paperFilters(t), sr, Options{MulticastDelay: mc})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range si.Stats.Latencies {
		if l != mc {
			t.Errorf("SI latency %d = %v, want %v", i, l, mc)
		}
	}
	ga, err := Run(paperFilters(t), sr, Options{Algorithm: RG, MulticastDelay: mc})
	if err != nil {
		t.Fatal(err)
	}
	if ga.Stats.MeanLatency() <= si.Stats.MeanLatency() {
		t.Errorf("RG mean latency %v not above SI %v", ga.Stats.MeanLatency(), si.Stats.MeanLatency())
	}
	// Tuple 45 (ts slot 4) delivered at slot 10: latency = 60ms + mc.
	found := false
	for _, tr := range ga.Transmissions {
		if tr.Tuple.ValueAt(0) == 50 {
			found = true
			if got := tr.ReleasedAt.Sub(tr.Tuple.TS) + mc; got != 50*time.Millisecond+mc {
				t.Errorf("tuple 50 latency = %v, want %v", got, 50*time.Millisecond+mc)
			}
		}
	}
	if !found {
		t.Error("tuple 50 not transmitted")
	}
}

// TestCutsReduceLatency: decreasing the cut budget monotonically reduces
// (or keeps equal) the mean latency and never increases output below SI
// performance (Figs 4.9, 4.12).
func TestCutsReduceLatency(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 2000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []filter.Filter {
		f1, _ := filter.NewDC1("f1", "fluoro", 0.10, 0.05)
		f2, _ := filter.NewDC1("f2", "fluoro", 0.22, 0.10)
		f3, _ := filter.NewDC1("f3", "fluoro", 0.16, 0.08)
		return []filter.Filter{f1, f2, f3}
	}
	budgets := []time.Duration{125 * time.Millisecond, 60 * time.Millisecond, 30 * time.Millisecond, 15 * time.Millisecond, 8 * time.Millisecond}
	var lats []time.Duration
	var cutsPct []float64
	for _, b := range budgets {
		res, err := Run(mk(), sr, Options{Algorithm: RG, Cuts: true, MaxDelay: b})
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, res.Stats.MeanLatency())
		cutsPct = append(cutsPct, float64(res.Stats.RegionsCut)/float64(res.Stats.Regions))
	}
	for i := 1; i < len(lats); i++ {
		if lats[i] > lats[i-1]+time.Millisecond {
			t.Errorf("latency not decreasing with budget: %v", lats)
			break
		}
	}
	if cutsPct[len(cutsPct)-1] <= cutsPct[0] {
		t.Errorf("percent of regions cut did not increase: %v", cutsPct)
	}
}

// TestBatchedStrategyDelaysOutput: a batch far larger than the natural
// region inflates latency (Fig 4.13).
func TestBatchedStrategyDelaysOutput(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 1200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []filter.Filter {
		f1, _ := filter.NewDC1("f1", "fluoro", 0.10, 0.05)
		f2, _ := filter.NewDC1("f2", "fluoro", 0.16, 0.08)
		return []filter.Filter{f1, f2}
	}
	base, err := Run(mk(), sr, Options{Algorithm: PS})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(mk(), sr, Options{Algorithm: PS, Strategy: Batched, BatchSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	pcs, err := Run(mk(), sr, Options{Algorithm: PS, Strategy: PerCandidateSet})
	if err != nil {
		t.Fatal(err)
	}
	if batched.Stats.MeanLatency() <= base.Stats.MeanLatency() {
		t.Errorf("batched latency %v not above earliest-region %v",
			batched.Stats.MeanLatency(), base.Stats.MeanLatency())
	}
	if pcs.Stats.MeanLatency() > base.Stats.MeanLatency() {
		t.Errorf("per-candidate-set latency %v above earliest-region %v",
			pcs.Stats.MeanLatency(), base.Stats.MeanLatency())
	}
	// Output size is identical across strategies: release timing must
	// not change what is chosen.
	if base.Stats.DistinctOutputs != batched.Stats.DistinctOutputs ||
		base.Stats.DistinctOutputs != pcs.Stats.DistinctOutputs {
		t.Errorf("strategies changed output size: %d / %d / %d",
			base.Stats.DistinctOutputs, batched.Stats.DistinctOutputs, pcs.Stats.DistinctOutputs)
	}
}

// TestEngineValidation covers construction and stepping errors.
func TestEngineValidation(t *testing.T) {
	f1, _ := filter.NewDC1("f", "v", 1, 0.4)
	f2, _ := filter.NewDC1("f", "v", 2, 0.8)
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Error("empty group should fail")
	}
	if _, err := NewEngine([]filter.Filter{f1, f2}, Options{}); err == nil {
		t.Error("duplicate ids should fail")
	}
	if _, err := NewEngine([]filter.Filter{f1}, Options{Cuts: true}); err == nil {
		t.Error("cuts without MaxDelay should fail")
	}
	if _, err := NewEngine([]filter.Filter{f1}, Options{Strategy: Batched}); err == nil {
		t.Error("batched without BatchSize should fail")
	}
	if _, err := NewEngine([]filter.Filter{f1}, Options{Algorithm: Algorithm(9)}); err == nil {
		t.Error("unknown algorithm should fail")
	}

	// Non-increasing timestamps rejected.
	s := tuple.MustSchema("v")
	e, err := NewEngine([]filter.Filter{f1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := tuple.MustNew(s, 0, trace.Epoch, []float64{0})
	t1 := tuple.MustNew(s, 1, trace.Epoch, []float64{1})
	if err := e.Step(t0); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(t1); err == nil {
		t.Error("equal timestamp should fail")
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(t1); err == nil {
		t.Error("Step after Finish should fail")
	}
	if err := e.Finish(); err != nil {
		t.Errorf("double Finish should be a no-op, got %v", err)
	}
}

// TestStatefulFilterInGroup: a stateful filter coexists with stateless
// ones under both algorithms; its decisions are folded into regions.
func TestStatefulFilterInGroup(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 1000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{RG, PS} {
		t.Run(alg.String(), func(t *testing.T) {
			sf, err := filter.NewStatefulDC("sf", "fluoro", 0.14, 0.07)
			if err != nil {
				t.Fatal(err)
			}
			dc, err := filter.NewDC1("dc", "fluoro", 0.14, 0.07)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run([]filter.Filter{sf, dc}, sr, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PerFilter["sf"] == 0 {
				t.Error("stateful filter received no deliveries")
			}
			if res.Stats.PerFilter["dc"] == 0 {
				t.Error("stateless filter received no deliveries")
			}
			// Sharing should make the union smaller than the sum.
			if res.Stats.DistinctOutputs >= res.Stats.PerFilter["sf"]+res.Stats.PerFilter["dc"] {
				t.Errorf("no sharing: union %d, deliveries %d+%d",
					res.Stats.DistinctOutputs, res.Stats.PerFilter["sf"], res.Stats.PerFilter["dc"])
			}
		})
	}
}

// TestSamplerGroupMultiDegree: three stratified samplers with different
// rates share picks; union beats self-interested sampling.
func TestSamplerGroupMultiDegree(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 2000, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []filter.Filter {
		s1, _ := filter.NewSS("s1", "tmpr4", time.Second, 0.15, 50, 20, filter.Random)
		s2, _ := filter.NewSS("s2", "tmpr4", time.Second, 0.30, 50, 20, filter.Random)
		s3, _ := filter.NewSS("s3", "tmpr4", time.Second, 0.23, 50, 20, filter.Random)
		return []filter.Filter{s1, s2, s3}
	}
	ga, err := Run(mk(), sr, Options{Algorithm: RG})
	if err != nil {
		t.Fatal(err)
	}
	si, err := RunSelfInterested(mk(), sr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ga.Stats.DistinctOutputs > si.Stats.DistinctOutputs {
		t.Errorf("GA union %d > SI union %d", ga.Stats.DistinctOutputs, si.Stats.DistinctOutputs)
	}
	// Some sharing must materialize (the paper's Fig 5.2 reports ~0.95
	// output ratios for SS groups; the benefit is modest but real).
	if ga.Stats.DistinctOutputs >= si.Stats.DistinctOutputs {
		t.Errorf("expected sharing: GA %d vs SI %d", ga.Stats.DistinctOutputs, si.Stats.DistinctOutputs)
	}
	// Quotas satisfied: per-filter deliveries match SI counts.
	for id, n := range si.Stats.PerFilter {
		if got := ga.Stats.PerFilter[id]; got != n {
			t.Errorf("filter %s deliveries = %d, want %d", id, got, n)
		}
	}
}

// TestTieBreakAblation: PreferEarliest changes decisions but preserves
// validity (per-filter counts).
func TestTieBreakAblation(t *testing.T) {
	sr := trace.PaperExample()
	latest, err := Run(paperFilters(t), sr, Options{Algorithm: RG, Ties: PreferLatest})
	if err != nil {
		t.Fatal(err)
	}
	earliest, err := Run(paperFilters(t), sr, Options{Algorithm: RG, Ties: PreferEarliest})
	if err != nil {
		t.Fatal(err)
	}
	// Fig 2.8's region 2 tie (97 vs 100, then 45 vs 50) flips.
	wantTransmissions(t, earliest.Transmissions, []string{
		"0->{A,B,C}@2",
		"45->{A,B}@10",
		"97->{A,B,C}@10",
	})
	if latest.Stats.DistinctOutputs != earliest.Stats.DistinctOutputs {
		t.Errorf("tie-break changed output size: %d vs %d",
			latest.Stats.DistinctOutputs, earliest.Stats.DistinctOutputs)
	}
}

// TestRunDeterminism: identical runs produce identical transmissions, RG
// with timely cuts included: its cuts follow stream time and counted work.
func TestRunDeterminism(t *testing.T) {
	sr, err := trace.NAMOS(trace.Config{N: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []filter.Filter {
		f1, _ := filter.NewDC1("f1", "tmpr2", 0.046, 0.023)
		f2, _ := filter.NewDC1("f2", "tmpr2", 0.07, 0.03)
		return []filter.Filter{f1, f2}
	}
	for _, opts := range []Options{
		{Algorithm: RG},
		{Algorithm: PS},
		{Algorithm: RG, Cuts: true, MaxDelay: 60 * time.Millisecond},
		{Algorithm: RG, Strategy: PerCandidateSet, Cuts: true, MaxDelay: 30 * time.Millisecond},
	} {
		a, err := Run(mk(), sr, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mk(), sr, opts)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := renderTransmissions(a.Transmissions), renderTransmissions(b.Transmissions)
		if len(ra) != len(rb) {
			t.Fatalf("%+v: nondeterministic transmission count", opts)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%+v: nondeterministic transmission %d: %s vs %s", opts, i, ra[i], rb[i])
			}
		}
	}
}

// TestStatsHelpers exercises the aggregate accessors.
func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.OIRatio() != 0 || s.CPUPerTuple() != 0 || s.MeanLatency() != 0 || s.MeanRegionTuples() != 0 {
		t.Error("zero-value stats accessors should return 0")
	}
	s.Inputs = 10
	s.DistinctOutputs = 4
	s.CPU = 100 * time.Microsecond
	s.Latencies = []time.Duration{10 * time.Millisecond, 30 * time.Millisecond}
	s.Regions = 2
	s.RegionTupleSum = 12
	if got := s.OIRatio(); got != 0.4 {
		t.Errorf("OIRatio = %g, want 0.4", got)
	}
	if got := s.CPUPerTuple(); got != 10*time.Microsecond {
		t.Errorf("CPUPerTuple = %v", got)
	}
	if got := s.MeanLatency(); got != 20*time.Millisecond {
		t.Errorf("MeanLatency = %v", got)
	}
	if got := s.MeanRegionTuples(); got != 6 {
		t.Errorf("MeanRegionTuples = %g", got)
	}
}
