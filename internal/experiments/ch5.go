package experiments

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"gasf/internal/core"
	"gasf/internal/metrics"
	"gasf/internal/quality"
	"gasf/internal/tuple"
)

// Table52Specs regenerates Table 5.2: the ten filter groups of the
// extensibility evaluation.
func Table52Specs(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, err
	}
	groups, err := quality.Table52(sr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Group", "Filter 1", "Filter 2", "Filter 3")
	for _, g := range groups {
		row := []string{g.Name}
		for _, sp := range g.Specs {
			row = append(row, sp.String())
		}
		tb.AddRow(row...)
	}
	return &Report{ID: "T5.2", Title: "Specifications for ten groups of filters", Text: tb.String(),
		Values: map[string]float64{"groups": float64(len(groups))}}, nil
}

// cpuRuns is how often the CPU figures run each variant of a group. A
// quick-sized run takes about a millisecond, so one collection or one
// preemption can double it; the reported run is the median by CPU.
const cpuRuns = 9

// runTable52 executes GA (RG) and SI for every Table 5.2 group, each
// variant runs times, and returns the median runs by CPU (medianRuns).
func runTable52(cfg Config, runs int) ([]quality.Group, []*core.Result, []*core.Result, error) {
	sr, err := namosTrace(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	groups, err := quality.Table52(sr, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	variants := []variant{
		{name: "RG", opts: core.Options{Algorithm: core.RG, MulticastDelay: cfg.MulticastDelay}},
		{name: "SI", si: true, opts: core.Options{MulticastDelay: cfg.MulticastDelay}},
	}
	var gas, sis []*core.Result
	for _, g := range groups {
		rs, err := medianRuns(g, sr, variants, runs)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", g.Name, err)
		}
		gas, sis = append(gas, rs[0]), append(sis, rs[1])
	}
	return groups, gas, sis, nil
}

// medianRuns runs every variant over the group runs times and returns,
// per variant, the median run by CPU. The outputs of a variant are the
// same in every run; its CPU is not, since a run of a few milliseconds
// doubles with one collection or preemption. Every run starts from a
// collected heap, so that none pays for another's garbage, and the
// variants alternate, so that a slow stretch of the machine falls on all
// of them.
func medianRuns(g quality.Group, sr *tuple.Series, variants []variant, runs int) ([]*core.Result, error) {
	res := make([][]*core.Result, len(variants))
	for range runs {
		for i, v := range variants {
			runtime.GC()
			r, err := runVariant(g, sr, v)
			if err != nil {
				return nil, err
			}
			res[i] = append(res[i], r)
		}
	}
	out := make([]*core.Result, len(variants))
	for i, rs := range res {
		slices.SortFunc(rs, func(a, b *core.Result) int { return cmp.Compare(a.Stats.CPU, b.Stats.CPU) })
		out[i] = rs[len(rs)/2]
	}
	return out, nil
}

// Fig52OutputRatio regenerates Fig 5.2: output ratio per batch of 100
// tuples for the ten groups (average and median). Paper shape: eight of
// ten groups fall below 0.80; sampling-only groups benefit least.
func Fig52OutputRatio(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	groups, gas, sis, err := runTable52(cfg, 1)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("group", "avg output ratio", "median output ratio")
	vals := make(map[string]float64)
	for i, g := range groups {
		avg, median := batchOutputRatio(gas[i], sis[i], cfg.N, 100)
		tb.AddRow(g.Name, fmtRatio(avg), fmtRatio(median))
		vals[g.Name+"/avg"] = avg
		vals[g.Name+"/median"] = median
	}
	return &Report{ID: "F5.2", Title: "Benefit of group-aware filtering", Text: tb.String(), Values: vals}, nil
}

// Table53CPUBatch regenerates Table 5.3: average CPU cost per batch of 100
// tuples, group-aware versus self-interested.
func Table53CPUBatch(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	groups, gas, sis, err := runTable52(cfg, cpuRuns)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("Group", "Group-aware (ms)", "Self-interested (ms)")
	vals := make(map[string]float64)
	perBatch := func(r *core.Result) float64 {
		if r.Stats.Inputs == 0 {
			return 0
		}
		return float64(r.Stats.CPU) / float64(r.Stats.Inputs) * 100 / float64(time.Millisecond)
	}
	for i, g := range groups {
		ga, si := perBatch(gas[i]), perBatch(sis[i])
		tb.AddRow(g.Name, fmt.Sprintf("%.3f", ga), fmt.Sprintf("%.3f", si))
		vals[g.Name+"/ga"] = ga
		vals[g.Name+"/si"] = si
	}
	return &Report{ID: "T5.3", Title: "Average CPU cost per batch of 100 tuples", Text: tb.String(), Values: vals}, nil
}

// Fig53OverheadRatio regenerates Fig 5.3: the CPU overhead ratio
// (group-aware over self-interested) per group. Paper shape: between ~1.5x
// and ~3x.
func Fig53OverheadRatio(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	groups, gas, sis, err := runTable52(cfg, cpuRuns)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("group", "CPU overhead ratio")
	vals := make(map[string]float64)
	for i, g := range groups {
		ratio := 0.0
		if sis[i].Stats.CPU > 0 {
			ratio = float64(gas[i].Stats.CPU) / float64(sis[i].Stats.CPU)
		}
		tb.AddRow(g.Name, fmt.Sprintf("%.2f", ratio))
		vals[g.Name] = ratio
	}
	return &Report{ID: "F5.3", Title: "CPU overhead ratios", Text: tb.String(), Values: vals}, nil
}
