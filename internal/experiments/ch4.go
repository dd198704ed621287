package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gasf/internal/core"
	"gasf/internal/metrics"
	"gasf/internal/quality"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// Table41Specs regenerates Table 4.1: the three filter groups derived from
// the trace's srcStatistics.
func Table41Specs(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	groups, err := quality.Table41(sr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("GROUP NAME", "FILTER")
	for _, g := range groups {
		for _, sp := range g.Specs {
			tb.AddRow(g.Name, sp.String())
		}
	}
	vals := map[string]float64{"groups": float64(len(groups))}
	return &Report{ID: "T4.1", Title: "Specifications for groups of filters", Text: tb.String(), Values: vals}, nil
}

// Fig42OIRatios regenerates Fig 4.2: O/I ratios of the three Table 4.1
// groups under RG, RG+C, PS, PS+C and SI. Paper shape: every group-aware
// variant lands well below SI (0.33-0.38 vs 0.46-0.51 on NAMOS).
func Fig42OIRatios(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	groups, err := quality.Table41(sr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("group", "algorithm", "O/I ratio")
	vals := make(map[string]float64)
	for _, g := range groups {
		for _, v := range fiveVariants(cfg.MulticastDelay) {
			res, err := runVariant(g, sr, v)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", g.Name, v.name, err)
			}
			oi := res.Stats.OIRatio()
			tb.AddRow(g.Name, v.name, fmtRatio(oi))
			vals[g.Name+"/"+v.name] = oi
		}
	}
	return &Report{ID: "F4.2", Title: "O/I ratios for three groups", Text: tb.String(), Values: vals}, nil
}

// cpuBoxplots runs each variant cfg.Runs times and box-plots the mean CPU
// cost per tuple (the paper's Figs 4.3-4.5 layout).
func cpuBoxplots(cfg Config, sr *tuple.Series, groups []quality.Group) (*metrics.Table, map[string]float64, error) {
	tb := metrics.NewTable("group", "algorithm", "CPU/tuple (ms, box plot)")
	vals := make(map[string]float64)
	for _, g := range groups {
		for _, v := range fiveVariants(cfg.MulticastDelay) {
			var samples []float64
			for run := 0; run < cfg.Runs; run++ {
				res, err := runVariant(g, sr, v)
				if err != nil {
					return nil, nil, err
				}
				samples = append(samples, float64(res.Stats.CPUPerTuple())/float64(time.Millisecond))
			}
			bp := metrics.NewBoxPlot(samples)
			tb.AddRow(g.Name, v.name, bp.String())
			vals[g.Name+"/"+v.name] = bp.Median
		}
	}
	return tb, vals, nil
}

// Fig43to45CPUCost regenerates Figs 4.3-4.5: CPU cost per tuple for the
// three groups. Paper shape: group-aware filters cost several times the SI
// baseline, but stay well under the inter-arrival interval.
func Fig43to45CPUCost(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	groups, err := quality.Table41(sr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb, vals, err := cpuBoxplots(cfg, sr, groups)
	if err != nil {
		return nil, err
	}
	return &Report{ID: "F4.3-4.5", Title: "CPU cost per tuple", Text: tb.String(), Values: vals}, nil
}

// Fig46to48Latency regenerates Figs 4.6-4.8: per-delivery latency box
// plots. Paper shape: SI ~12 ms (the delivery constant); group-aware
// variants add the region wait (~tens of ms at a 10 ms tuple interval).
func Fig46to48Latency(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	groups, err := quality.Table41(sr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("group", "algorithm", "latency (ms, box plot)", "mean (ms)")
	vals := make(map[string]float64)
	for _, g := range groups {
		for _, v := range fiveVariants(cfg.MulticastDelay) {
			res, err := runVariant(g, sr, v)
			if err != nil {
				return nil, err
			}
			samples := metrics.Durations(res.Stats.Latencies)
			bp := metrics.NewBoxPlot(samples)
			mean := metrics.Summarize(samples).Mean
			tb.AddRow(g.Name, v.name, bp.String(), fmt.Sprintf("%.2f", mean))
			vals[g.Name+"/"+v.name] = mean
		}
	}
	return &Report{ID: "F4.6-4.8", Title: "Latency per tuple", Text: tb.String(), Values: vals}, nil
}

// cutBudgets are the paper's RG+C(01)..RG+C(05) sweep: 125 ms down
// 16-fold to 8 ms (§4.5).
var cutBudgets = []time.Duration{
	125 * time.Millisecond,
	60 * time.Millisecond,
	30 * time.Millisecond,
	15 * time.Millisecond,
	8 * time.Millisecond,
}

// fluoroGroup returns the DC_Fluoro group used by the cut experiments.
func fluoroGroup(cfg Config, sr *tuple.Series) (quality.Group, error) {
	groups, err := quality.Table41(sr, cfg.Seed)
	if err != nil {
		return quality.Group{}, err
	}
	return groups[0], nil
}

// cutSweep runs RG+C across the budget sweep.
func cutSweep(cfg Config) ([]*core.Result, *tuple.Series, error) {
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := fluoroGroup(cfg, sr)
	if err != nil {
		return nil, nil, err
	}
	var out []*core.Result
	for _, budget := range cutBudgets {
		res, err := runVariant(g, sr, variant{
			name: "RG+C",
			opts: core.Options{Algorithm: core.RG, Cuts: true, MaxDelay: budget, MulticastDelay: cfg.MulticastDelay},
		})
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
	}
	return out, sr, nil
}

// Fig49CutLatency regenerates Fig 4.9: tightening the budget from 125 ms
// to 8 ms drops mean latency toward the SI floor.
func Fig49CutLatency(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	results, _, err := cutSweep(cfg)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("budget", "latency mean (ms)", "latency (box plot)")
	vals := make(map[string]float64)
	for i, res := range results {
		samples := metrics.Durations(res.Stats.Latencies)
		mean := metrics.Summarize(samples).Mean
		name := fmt.Sprintf("RG+C(%02d)=%v", i+1, cutBudgets[i])
		tb.AddRow(name, fmt.Sprintf("%.2f", mean), metrics.NewBoxPlot(samples).String())
		vals[fmt.Sprintf("budget%d", i+1)] = mean
	}
	return &Report{ID: "F4.9", Title: "Cuts affect latency", Text: tb.String(), Values: vals}, nil
}

// Fig410CutCPU regenerates Fig 4.10: the CPU cost of enforcing cuts stays
// small (well under the tuple interval).
func Fig410CutCPU(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	results, _, err := cutSweep(cfg)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("budget", "CPU/tuple (ms)", "greedy share (ms)")
	vals := make(map[string]float64)
	for i, res := range results {
		cpu := float64(res.Stats.CPUPerTuple()) / float64(time.Millisecond)
		greedy := float64(res.Stats.GreedyCPU) / float64(res.Stats.Inputs) / float64(time.Millisecond)
		tb.AddRow(fmt.Sprintf("RG+C(%02d)", i+1), fmt.Sprintf("%.4f", cpu), fmt.Sprintf("%.4f", greedy))
		vals[fmt.Sprintf("budget%d", i+1)] = cpu
	}
	return &Report{ID: "F4.10", Title: "CPU cost of cuts", Text: tb.String(), Values: vals}, nil
}

// Fig411PercentCut regenerates Fig 4.11: the share of regions closed by a
// cut rises as the budget tightens.
func Fig411PercentCut(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	results, _, err := cutSweep(cfg)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("budget", "% regions cut", "regions")
	vals := make(map[string]float64)
	for i, res := range results {
		pct := 0.0
		if res.Stats.Regions > 0 {
			pct = 100 * float64(res.Stats.RegionsCut) / float64(res.Stats.Regions)
		}
		tb.AddRow(fmt.Sprintf("RG+C(%02d)", i+1), fmt.Sprintf("%.1f", pct), fmt.Sprintf("%d", res.Stats.Regions))
		vals[fmt.Sprintf("budget%d", i+1)] = pct
	}
	return &Report{ID: "F4.11", Title: "Percent of regions cut", Text: tb.String(), Values: vals}, nil
}

// Fig412CutOI regenerates Fig 4.12: cuts trade a slightly higher O/I ratio
// for latency; never worse than SI.
func Fig412CutOI(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	results, sr, err := cutSweep(cfg)
	if err != nil {
		return nil, err
	}
	g, err := fluoroGroup(cfg, sr)
	if err != nil {
		return nil, err
	}
	si, err := runVariant(g, sr, variant{name: "SI", si: true, opts: core.Options{MulticastDelay: cfg.MulticastDelay}})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("budget", "O/I ratio")
	vals := make(map[string]float64)
	for i, res := range results {
		tb.AddRow(fmt.Sprintf("RG+C(%02d)", i+1), fmtRatio(res.Stats.OIRatio()))
		vals[fmt.Sprintf("budget%d", i+1)] = res.Stats.OIRatio()
	}
	tb.AddRow("SI", fmtRatio(si.Stats.OIRatio()))
	vals["SI"] = si.Stats.OIRatio()
	return &Report{ID: "F4.12", Title: "Cuts affect O/I ratio", Text: tb.String(), Values: vals}, nil
}

// strategyVariants is the Fig 4.13/4.14 set: PS with each output strategy,
// plus SI.
func strategyVariants(cfg Config) []variant {
	mc := cfg.MulticastDelay
	return []variant{
		{name: "PS", opts: core.Options{Algorithm: core.PS, MulticastDelay: mc}},
		{name: "PS(B)-100", opts: core.Options{Algorithm: core.PS, Strategy: core.Batched, BatchSize: 100, MulticastDelay: mc}},
		{name: "PS(B)-300", opts: core.Options{Algorithm: core.PS, Strategy: core.Batched, BatchSize: 300, MulticastDelay: mc}},
		{name: "PS(Pcs)", opts: core.Options{Algorithm: core.PS, Strategy: core.PerCandidateSet, MulticastDelay: mc}},
		{name: "SI", si: true, opts: core.Options{MulticastDelay: mc}},
	}
}

// Fig413OutputStrategyLatency regenerates Fig 4.13: per-candidate-set
// release beats region release; oversized batches backlog badly.
func Fig413OutputStrategyLatency(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	g, err := fluoroGroup(cfg, sr)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("strategy", "latency mean (ms)", "latency (box plot)")
	vals := make(map[string]float64)
	for _, v := range strategyVariants(cfg) {
		res, err := runVariant(g, sr, v)
		if err != nil {
			return nil, err
		}
		samples := metrics.Durations(res.Stats.Latencies)
		mean := metrics.Summarize(samples).Mean
		tb.AddRow(v.name, fmt.Sprintf("%.2f", mean), metrics.NewBoxPlot(samples).String())
		vals[v.name] = mean
	}
	return &Report{ID: "F4.13", Title: "Output strategy affects timeliness", Text: tb.String(), Values: vals}, nil
}

// Fig414OutputStrategyCPU regenerates Fig 4.14: batched output skips
// region bookkeeping pressure at release time and costs slightly less CPU.
func Fig414OutputStrategyCPU(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	g, err := fluoroGroup(cfg, sr)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("strategy", "CPU/tuple (ms)")
	vals := make(map[string]float64)
	for _, v := range strategyVariants(cfg) {
		res, err := runVariant(g, sr, v)
		if err != nil {
			return nil, err
		}
		cpu := float64(res.Stats.CPUPerTuple()) / float64(time.Millisecond)
		tb.AddRow(v.name, fmt.Sprintf("%.4f", cpu))
		vals[v.name] = cpu
	}
	return &Report{ID: "F4.14", Title: "CPU cost of output strategies", Text: tb.String(), Values: vals}, nil
}

// Fig415SlackSweep regenerates Fig 4.15: output ratio (GA/SI) versus slack
// as a percentage of delta. Paper shape: ~1.0 at 3% slack falling to
// ~0.74 at 50%.
func Fig415SlackSweep(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	stat, err := quality.SrcStatistics(sr, "tmpr4")
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("slack (% of delta)", "output ratio")
	vals := make(map[string]float64)
	for _, pct := range []float64{3, 10, 20, 30, 40, 50} {
		g := quality.Group{Name: "DC_Tmpr"}
		for i, mult := range []float64{1, 2, 1.55} {
			delta := mult * stat
			g.Specs = append(g.Specs, quality.Spec{
				Kind: quality.DC1, Attrs: []string{"tmpr4"},
				Delta: delta, Slack: pct / 100 * delta,
			})
			_ = i
		}
		ga, err := runVariant(g, sr, variant{name: "RG", opts: core.Options{Algorithm: core.RG}})
		if err != nil {
			return nil, err
		}
		si, err := runVariant(g, sr, variant{name: "SI", si: true})
		if err != nil {
			return nil, err
		}
		ratio := float64(ga.Stats.DistinctOutputs) / float64(si.Stats.DistinctOutputs)
		tb.AddRow(fmt.Sprintf("%.0f%%", pct), fmtRatio(ratio))
		vals[fmt.Sprintf("slack%.0f", pct)] = ratio
	}
	return &Report{ID: "F4.15", Title: "Slack's effect on performance", Text: tb.String(), Values: vals}, nil
}

// Fig416DeltaSweep regenerates Fig 4.16: two filters fixed at 2x and 3x
// srcStatistics, the third swept from 1x to 2x; the output ratio is mostly
// level with jumps where candidate overlap changes discontinuously.
func Fig416DeltaSweep(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	stat, err := quality.SrcStatistics(sr, "tmpr4")
	if err != nil {
		return nil, err
	}
	slack := 0.5 * stat
	tb := metrics.NewTable("delta (x srcStat)", "output ratio")
	vals := make(map[string]float64)
	var ratios []float64
	for mult := 1.0; mult <= 2.001; mult += 0.1 {
		g := quality.Group{Name: "DC_Tmpr", Specs: []quality.Spec{
			{Kind: quality.DC1, Attrs: []string{"tmpr4"}, Delta: 2 * stat, Slack: slack},
			{Kind: quality.DC1, Attrs: []string{"tmpr4"}, Delta: 3 * stat, Slack: slack},
			{Kind: quality.DC1, Attrs: []string{"tmpr4"}, Delta: mult * stat, Slack: slack},
		}}
		ga, err := runVariant(g, sr, variant{name: "RG", opts: core.Options{Algorithm: core.RG}})
		if err != nil {
			return nil, err
		}
		si, err := runVariant(g, sr, variant{name: "SI", si: true})
		if err != nil {
			return nil, err
		}
		ratio := float64(ga.Stats.DistinctOutputs) / float64(si.Stats.DistinctOutputs)
		ratios = append(ratios, ratio)
		tb.AddRow(fmt.Sprintf("%.1f", mult), fmtRatio(ratio))
		vals[fmt.Sprintf("delta%.1f", mult)] = ratio
	}
	s := metrics.Summarize(ratios)
	tb.AddRow("average", fmtRatio(s.Mean))
	tb.AddRow("median", fmtRatio(s.Median))
	vals["average"], vals["median"] = s.Mean, s.Median
	return &Report{ID: "F4.16", Title: "Delta's effect on performance", Text: tb.String(), Values: vals}, nil
}

// Fig417GroupSize regenerates Fig 4.17: output ratio versus group size
// (3..20 filters, cfg.Runs random draws each); the median trends downward.
func Fig417GroupSize(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	sizes := []int{3, 5, 7, 9, 11, 13, 15, 17, 20}
	if cfg.Quick {
		sizes = []int{3, 7, 12, 20}
	}
	tb := metrics.NewTable("group size", "output ratio (box plot)", "median")
	vals := make(map[string]float64)
	for _, n := range sizes {
		var ratios []float64
		for run := 0; run < cfg.Runs; run++ {
			g, err := quality.GroupSizeGroup("tmpr4", sr, n, cfg.Seed+int64(run)*101+int64(n))
			if err != nil {
				return nil, err
			}
			ga, err := runVariant(g, sr, variant{name: "RG", opts: core.Options{Algorithm: core.RG}})
			if err != nil {
				return nil, err
			}
			si, err := runVariant(g, sr, variant{name: "SI", si: true})
			if err != nil {
				return nil, err
			}
			if si.Stats.DistinctOutputs > 0 {
				ratios = append(ratios, float64(ga.Stats.DistinctOutputs)/float64(si.Stats.DistinctOutputs))
			}
		}
		bp := metrics.NewBoxPlot(ratios)
		tb.AddRow(fmt.Sprintf("%d", n), bp.String(), fmtRatio(bp.Median))
		vals[fmt.Sprintf("n%d", n)] = bp.Median
	}
	return &Report{ID: "F4.17", Title: "Group size's effect on output ratio", Text: tb.String(), Values: vals}, nil
}

// Fig418GroupSizeCPU regenerates Fig 4.18: CPU per batch of 100 tuples
// grows roughly linearly with group size, group-aware costing about twice
// self-interested. Each figure is the median of cpuRuns alternating runs.
func Fig418GroupSizeCPU(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	sizes := []int{3, 5, 7, 9, 11, 13, 15, 17, 20}
	if cfg.Quick {
		sizes = []int{3, 7, 12, 20}
	}
	tb := metrics.NewTable("group size", "GA CPU/100 tuples (ms)", "SI CPU/100 tuples (ms)", "ratio")
	vals := make(map[string]float64)
	for _, n := range sizes {
		g, err := quality.GroupSizeGroup("tmpr4", sr, n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		rs, err := medianRuns(g, sr, []variant{{name: "RG", opts: core.Options{Algorithm: core.RG}}, {name: "SI", si: true}}, cpuRuns)
		if err != nil {
			return nil, err
		}
		ga, si := rs[0], rs[1]
		gaCPU := float64(ga.Stats.CPU) / float64(ga.Stats.Inputs) * 100 / float64(time.Millisecond)
		siCPU := float64(si.Stats.CPU) / float64(si.Stats.Inputs) * 100 / float64(time.Millisecond)
		ratio := math.Inf(1)
		if siCPU > 0 {
			ratio = gaCPU / siCPU
		}
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.3f", gaCPU), fmt.Sprintf("%.3f", siCPU), fmt.Sprintf("%.2f", ratio))
		vals[fmt.Sprintf("n%d/ga", n)] = gaCPU
		vals[fmt.Sprintf("n%d/si", n)] = siCPU
	}
	return &Report{ID: "F4.18", Title: "Group size's effect on CPU cost", Text: tb.String(), Values: vals}, nil
}

// sourceWorkloads builds the three Fig 4.19/4.20 data sources with their
// groups.
func sourceWorkloads(cfg Config) (map[string]*tuple.Series, map[string]quality.Group, error) {
	cow, err := trace.Cow(trace.Config{N: cfg.N, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	seis, err := trace.Seismic(trace.Config{N: cfg.N, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	fire, err := trace.FireHRR(trace.Config{N: cfg.N, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	series := map[string]*tuple.Series{"cow": cow, "seismic": seis, "fire": fire}
	groups := make(map[string]quality.Group, 3)
	for name, attr := range map[string]string{"cow": "E-orient", "seismic": "seis", "fire": "HRR"} {
		g, err := quality.SourceGroup("DC_"+name, attr, series[name], cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		groups[name] = g
	}
	return series, groups, nil
}

// Fig419SourceSpecs regenerates Fig 4.19: the filter specifications for
// the cow/volcano/fire sources.
func Fig419SourceSpecs(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	_, groups, err := sourceWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("GROUP NAME", "FILTER")
	for _, name := range []string{"cow", "seismic", "fire"} {
		for _, sp := range groups[name].Specs {
			tb.AddRow(groups[name].Name, sp.String())
		}
	}
	return &Report{ID: "F4.19", Title: "Filter specifications for multiple data sources", Text: tb.String(),
		Values: map[string]float64{"groups": 3}}, nil
}

// Fig420SourceOI regenerates Fig 4.20: O/I ratios per data source and
// algorithm. Paper shape: group-aware filtering reduces bandwidth to
// ~83% (cow), ~74% (seismic) and ~60% (fire HRR) of self-interested.
func Fig420SourceOI(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	series, groups, err := sourceWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("source", "algorithm", "O/I ratio", "output ratio vs SI")
	vals := make(map[string]float64)
	for _, name := range []string{"cow", "seismic", "fire"} {
		si, err := runVariant(groups[name], series[name], variant{name: "SI", si: true, opts: core.Options{MulticastDelay: cfg.MulticastDelay}})
		if err != nil {
			return nil, err
		}
		for _, v := range fiveVariants(cfg.MulticastDelay) {
			res := si
			if !v.si {
				res, err = runVariant(groups[name], series[name], v)
				if err != nil {
					return nil, err
				}
			}
			ratio := 1.0
			if si.Stats.DistinctOutputs > 0 {
				ratio = float64(res.Stats.DistinctOutputs) / float64(si.Stats.DistinctOutputs)
			}
			tb.AddRow(name, v.name, fmtRatio(res.Stats.OIRatio()), fmtRatio(ratio))
			vals[name+"/"+v.name] = ratio
		}
	}
	return &Report{ID: "F4.20", Title: "O/I ratios with different data sources", Text: tb.String(), Values: vals}, nil
}

// Fig421to423Traces summarizes the update patterns of the three sources
// (the paper plots the raw series; we report the statistics the analysis
// relies on: burstiness vs smoothness).
func Fig421to423Traces(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	series, _, err := sourceWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	attrs := map[string]string{"cow": "E-orient", "seismic": "seis", "fire": "HRR"}
	tb := metrics.NewTable("source", "tuples", "srcStatistics", "max step / mean step", "quiet steps %")
	vals := make(map[string]float64)
	for _, name := range []string{"cow", "seismic", "fire"} {
		sr := series[name]
		col, err := sr.Column(attrs[name])
		if err != nil {
			return nil, err
		}
		stat, err := sr.MeanAbsChange(attrs[name])
		if err != nil {
			return nil, err
		}
		maxStep, quiet := 0.0, 0
		for i := 1; i < len(col); i++ {
			d := math.Abs(col[i] - col[i-1])
			if d > maxStep {
				maxStep = d
			}
			if d < stat/4 {
				quiet++
			}
		}
		burst := maxStep / stat
		quietPct := 100 * float64(quiet) / float64(len(col)-1)
		tb.AddRow(name, fmt.Sprintf("%d", sr.Len()), fmt.Sprintf("%.5g", stat),
			fmt.Sprintf("%.1f", burst), fmt.Sprintf("%.1f", quietPct))
		vals[name+"/burst"] = burst
		vals[name+"/quietPct"] = quietPct
	}
	return &Report{ID: "F4.21-4.23", Title: "Source update patterns", Text: tb.String(), Values: vals}, nil
}

// Fig424SourceCPU regenerates Fig 4.24: CPU cost per tuple per source; the
// group-aware overhead stays below ~50% extra for each source. Each figure
// is the median of cpuRuns alternating runs.
func Fig424SourceCPU(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	series, groups, err := sourceWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("source", "algorithm", "CPU/tuple (ms)")
	vals := make(map[string]float64)
	variants := fiveVariants(cfg.MulticastDelay)
	for _, name := range []string{"cow", "seismic", "fire"} {
		rs, err := medianRuns(groups[name], series[name], variants, cpuRuns)
		if err != nil {
			return nil, err
		}
		for i, v := range variants {
			cpu := float64(rs[i].Stats.CPUPerTuple()) / float64(time.Millisecond)
			tb.AddRow(name, v.name, fmt.Sprintf("%.4f", cpu))
			vals[name+"/"+v.name] = cpu
		}
	}
	return &Report{ID: "F4.24", Title: "CPU cost with different data sources", Text: tb.String(), Values: vals}, nil
}

// RenderValues produces a stable one-line rendering of a report's value
// map; used by EXPERIMENTS.md generation and debugging.
func RenderValues(vals map[string]float64) string {
	var b strings.Builder
	for _, k := range sortedKeys(vals) {
		fmt.Fprintf(&b, "%s=%.4g ", k, vals[k])
	}
	return strings.TrimSpace(b.String())
}
