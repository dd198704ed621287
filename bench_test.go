// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's experiment index), plus micro-benchmarks of
// the engine primitives. Each Benchmark<ID> re-runs the corresponding
// experiment workload; the experiment's printed rows are produced by
// cmd/gasf-experiments, while these benchmarks measure end-to-end cost and
// allocation behavior of regenerating them.
//
// Run with:
//
//	go test -bench=. -benchmem
package gasf_test

import (
	"testing"
	"time"

	"gasf"
	"gasf/internal/core"
	"gasf/internal/experiments"
	"gasf/internal/filter"
	"gasf/internal/hitting"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// benchCfg is the quick experiment configuration used by the per-figure
// benchmarks (2000 tuples, 3 runs) so the whole suite completes in
// minutes.
func benchCfg() experiments.Config {
	return experiments.Config{Quick: true, Seed: 1}
}

// benchExperiment runs one registered experiment b.N times.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- introduction figure --------------------------------------------------

func BenchmarkFig13Bandwidth(b *testing.B) { benchExperiment(b, "F1.3") }

// --- one benchmark per table/figure (Chapter 4) -------------------------

func BenchmarkTable41Specs(b *testing.B)                { benchExperiment(b, "T4.1") }
func BenchmarkFig42OIRatios(b *testing.B)               { benchExperiment(b, "F4.2") }
func BenchmarkFig43to45CPUCost(b *testing.B)            { benchExperiment(b, "F4.3-4.5") }
func BenchmarkFig46to48Latency(b *testing.B)            { benchExperiment(b, "F4.6-4.8") }
func BenchmarkFig49CutLatency(b *testing.B)             { benchExperiment(b, "F4.9") }
func BenchmarkFig410CutCPU(b *testing.B)                { benchExperiment(b, "F4.10") }
func BenchmarkFig411PercentCut(b *testing.B)            { benchExperiment(b, "F4.11") }
func BenchmarkFig412CutOI(b *testing.B)                 { benchExperiment(b, "F4.12") }
func BenchmarkFig413OutputStrategyLatency(b *testing.B) { benchExperiment(b, "F4.13") }
func BenchmarkFig414OutputStrategyCPU(b *testing.B)     { benchExperiment(b, "F4.14") }
func BenchmarkFig415SlackSweep(b *testing.B)            { benchExperiment(b, "F4.15") }
func BenchmarkFig416DeltaSweep(b *testing.B)            { benchExperiment(b, "F4.16") }
func BenchmarkFig417GroupSize(b *testing.B)             { benchExperiment(b, "F4.17") }
func BenchmarkFig418GroupSizeCPU(b *testing.B)          { benchExperiment(b, "F4.18") }
func BenchmarkFig419SourceSpecs(b *testing.B)           { benchExperiment(b, "F4.19") }
func BenchmarkFig420SourceOI(b *testing.B)              { benchExperiment(b, "F4.20") }
func BenchmarkFig421to423Traces(b *testing.B)           { benchExperiment(b, "F4.21-4.23") }
func BenchmarkFig424SourceCPU(b *testing.B)             { benchExperiment(b, "F4.24") }

// --- one benchmark per table/figure (Chapter 5) -------------------------

func BenchmarkTable52Groups(b *testing.B)      { benchExperiment(b, "T5.2") }
func BenchmarkFig52OutputRatio(b *testing.B)   { benchExperiment(b, "F5.2") }
func BenchmarkTable53CPUBatch(b *testing.B)    { benchExperiment(b, "T5.3") }
func BenchmarkFig53OverheadRatio(b *testing.B) { benchExperiment(b, "F5.3") }

// --- ablation benches ----------------------------------------------------

func BenchmarkAblationTieBreak(b *testing.B)      { benchExperiment(b, "A1") }
func BenchmarkAblationSegmentation(b *testing.B)  { benchExperiment(b, "A2") }
func BenchmarkAblationGreedyVsExact(b *testing.B) { benchExperiment(b, "A3") }

// --- engine micro-benchmarks ---------------------------------------------

// benchSeries builds the shared NAMOS workload once.
func benchSeries(b *testing.B, n int) *gasf.Series {
	b.Helper()
	sr, err := gasf.NAMOS(gasf.TraceConfig{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return sr
}

func benchFilters(b *testing.B, sr *gasf.Series, count int) []gasf.Filter {
	b.Helper()
	stat, err := sr.MeanAbsChange("tmpr4")
	if err != nil {
		b.Fatal(err)
	}
	out := make([]gasf.Filter, count)
	for i := range out {
		mult := 1 + float64(i)*0.37
		f, err := gasf.NewDCFilter(string(rune('A'+i)), "tmpr4", mult*stat, 0.5*mult*stat)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = f
	}
	return out
}

// BenchmarkEngineRG measures region-based greedy throughput per input
// tuple on a three-filter group.
func BenchmarkEngineRG(b *testing.B) {
	sr := benchSeries(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gasf.Run(benchFilters(b, sr, 3), sr, gasf.Options{Algorithm: gasf.RG}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*sr.Len())/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkEnginePS measures per-candidate-set greedy throughput.
func BenchmarkEnginePS(b *testing.B) {
	sr := benchSeries(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gasf.Run(benchFilters(b, sr, 3), sr, gasf.Options{Algorithm: gasf.PS}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*sr.Len())/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkEngineRGWideGroup measures scaling to a 20-filter group
// (Fig 4.18's regime).
func BenchmarkEngineRGWideGroup(b *testing.B) {
	sr := benchSeries(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gasf.Run(benchFilters(b, sr, 20), sr, gasf.Options{Algorithm: gasf.RG}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfInterested is the baseline cost for the overhead-ratio
// comparisons.
func BenchmarkSelfInterested(b *testing.B) {
	sr := benchSeries(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gasf.RunSelfInterested(benchFilters(b, sr, 3), sr, gasf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCProcess measures the raw per-tuple cost of one
// delta-compression filter.
func BenchmarkDCProcess(b *testing.B) {
	sr := benchSeries(b, 2000)
	f, err := filter.NewDC1("f", "tmpr4", 0.01, 0.005)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sr.At(i % sr.Len())
		if _, err := f.Process(t); err != nil {
			b.Fatal(err)
		}
		if i%sr.Len() == sr.Len()-1 {
			f.Reset()
		}
	}
}

// BenchmarkGreedyHittingSet measures the stage-two decision cost on
// synthetic regions of growing size.
func BenchmarkGreedyHittingSet(b *testing.B) {
	schema := tuple.MustSchema("v")
	mkRegion := func(nSets, width int) []*filter.CandidateSet {
		sets := make([]*filter.CandidateSet, nSets)
		for i := range sets {
			members := make([]*tuple.Tuple, width)
			for j := range members {
				seq := i*2 + j
				members[j] = tuple.MustNew(schema, seq,
					trace.Epoch.Add(time.Duration(seq)*time.Millisecond), []float64{0})
			}
			sets[i] = &filter.CandidateSet{Owner: string(rune('A' + i)), Members: members, PickDegree: 1}
		}
		return sets
	}
	region := mkRegion(8, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hitting.Greedy(region); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulticastDissemination measures the simulated dissemination
// path of Fig 13: engine transmissions pushed through a 7-node multicast
// tree.
func BenchmarkMulticastDissemination(b *testing.B) {
	sr := benchSeries(b, 1000)
	res, err := gasf.Run(benchFilters(b, sr, 3), sr, gasf.Options{Algorithm: gasf.RG})
	if err != nil {
		b.Fatal(err)
	}
	net, err := overlayNetwork()
	if err != nil {
		b.Fatal(err)
	}
	tree, acct, err := buildTree(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := res.Transmissions[i%len(res.Transmissions)]
		if _, err := tree.Multicast(tr.Destinations, 72, acct); err != nil {
			b.Fatal(err)
		}
	}
}

// --- SI comparison for core.Options defaults ------------------------------

// BenchmarkEngineStepLatencyBudget verifies the per-tuple step stays well
// under the paper's 10 ms arrival interval even with cuts enabled.
func BenchmarkEngineStepLatencyBudget(b *testing.B) {
	sr := benchSeries(b, 2000)
	filters := benchFilters(b, sr, 3)
	e, err := core.NewEngine(filters, core.Options{Algorithm: core.RG, Cuts: true, MaxDelay: 60 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%sr.Len() == 0 {
			b.StopTimer()
			e, err = core.NewEngine(benchFilters(b, sr, 3), core.Options{Algorithm: core.RG, Cuts: true, MaxDelay: 60 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := e.Step(sr.At(i % sr.Len())); err != nil {
			b.Fatal(err)
		}
	}
}
