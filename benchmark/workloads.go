package main

import (
	"fmt"
	"math/rand"
	"time"

	"gasf/internal/quality"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// sutKind selects which deployment of the broker a workload drives.
type sutKind int

const (
	kindEmbedded  sutKind = iota // gasf.NewEmbedded, no sockets
	kindTCP                      // one in-process server on loopback
	kindDurable                  // the same server with a segment log
	kindFederated                // one core and two edges
)

// subPlan is one application joining a source's filter group.
type subPlan struct {
	app  string
	spec string
	// sessions is how many client sessions share the app name and spec —
	// one federated group. 0 means 1.
	sessions int
	// direct attaches the session to the core node instead of an edge
	// (federated only): the control subscriber the relay hop is measured
	// against.
	direct bool
}

// workload is one named set of inputs. The rates are fixed here, set
// once from the seed commit's numbers on the reference container, and
// never derived at run time: a run's inputs depend on the seed and the
// run length only.
type workload struct {
	name string
	why  string
	kind sutKind
	// sources is the number of publisher sessions (one generator each).
	sources int
	// satRate sizes the closed-loop rounds: a round's tuple count is what
	// this many tuples per second (whole workload) would fill it with.
	satRate float64
	// pacedRate is the offered rate of the open-loop phase, tuples per
	// second over the whole workload, 10-15 % of the seed's closed-loop
	// rate (README.md says why not more).
	pacedRate float64
	// build generates the tuples and the subscriptions of every source.
	build func(seed int64, perSource int) ([]*sourceInput, error)
}

// Phase shares of the run length. The rest is set-up, the reference
// computation and the drain.
const (
	satShare    = 0.58
	pacedShare  = 0.29
	pacedPeriod = time.Millisecond
	satBatch    = 256
	// The closed-loop phase runs as rounds of about roundLength each, every
	// one a freshly started system fed the same tuples and measured on its
	// own, and the open-loop latencies are grouped into latencyWindow-long
	// windows: the reported figures are medians over rounds and windows,
	// so a disturbance that hits a minority of them (another tenant of the
	// machine, mostly) does not move the run.
	roundLength   = 0.5 // seconds, at the workload's satRate
	latencyWindow = time.Second
)

// sizes are the tuple counts of one run, per source.
type sizes struct {
	rounds int           // closed-loop rounds
	satN   int           // closed-loop tuples of one round
	batch  int           // tuples per open-loop tick
	ticks  int           // open-loop ticks
	period time.Duration // tick spacing
}

// perSource is how many tuples a source's stream holds: one round's
// closed-loop tuples (every round replays them) and the open-loop ones.
func (s sizes) perSource() int { return s.satN + s.batch*s.ticks }

// sizesFor derives the tuple counts from the run length alone.
func (w *workload) sizesFor(seconds float64, quick bool) sizes {
	s := sizes{period: pacedPeriod}
	s.batch = max(1, int(w.pacedRate*pacedPeriod.Seconds()/float64(w.sources)+0.5))
	if quick {
		s.rounds, s.satN, s.ticks = 2, 4*satBatch, 60
		return s
	}
	s.satN = max(1, int(w.satRate*roundLength/float64(w.sources))/satBatch) * satBatch
	s.rounds = max(3, int(satShare*seconds/roundLength))
	s.ticks = max(1, int(pacedShare*seconds/pacedPeriod.Seconds()))
	return s
}

var workloads = []*workload{
	{
		name: "embedded_group",
		why: "4 sources x 12 overlapping DC1/DC2/DC3/stateful/sampling filters in-process: " +
			"core and filter do nearly all the work, wire/server/seglog/relay none",
		kind: kindEmbedded, sources: 4,
		satRate: 190000, pacedRate: 28000,
		build: buildGroupSources,
	},
	{
		name: "tcp_passall",
		why: "1 publisher, 3 slack-0 pass-all subscribers, 1-attribute tuples over loopback: " +
			"engine sets are singletons, so decode, ring, fan-out, encode and egress dominate",
		kind: kindTCP, sources: 1,
		satRate: 360000, pacedRate: 50000,
		build: func(seed int64, n int) ([]*sourceInput, error) {
			return buildWalkSource(seed, n, []subPlan{
				{app: "p0", spec: "DC1(v, 0.5, 0)"},
				{app: "p1", spec: "DC1(v, 0.25, 0)"},
				{app: "p2", spec: "DC1(v, 0.75, 0)"},
			}, true)
		},
	},
	{
		name: "tcp_durable_resume",
		why: "durable server, 3 moderate-slack subscribers that leave mid-stream and resume from offset 0 " +
			"while the publisher keeps appending: log writes beside log reads, seglog does the extra work",
		kind: kindDurable, sources: 1,
		satRate: 620000, pacedRate: 60000,
		build: func(seed int64, n int) ([]*sourceInput, error) {
			return buildWalkSource(seed, n, []subPlan{
				{app: "d0", spec: "DC1(v, 1.5, 0.5)"},
				{app: "d1", spec: "DC1(v, 2, 0.8)"},
				{app: "d2", spec: "SDC(v, 3, 1)"},
			}, false)
		},
	},
	{
		name: "federated_relay",
		why: "1 core + 2 edges, 2 groups x 2 subscribers on the edges plus a control subscriber on the core " +
			"with the same spec: edge minus core-direct delivery is the relay hop itself",
		kind: kindFederated, sources: 1,
		satRate: 290000, pacedRate: 40000,
		build: func(seed int64, n int) ([]*sourceInput, error) {
			const spec = "DC1(v, 0.5, 0)"
			return buildWalkSource(seed, n, []subPlan{
				{app: "grpA", spec: spec, sessions: 2},
				{app: "grpB", spec: spec, sessions: 2},
				{app: "ctl", spec: spec, direct: true},
			}, true)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildGroupSources generates, per source, a seeded NAMOS-style trace and
// a 12-filter group over it. The specs follow quality.Table52 — the
// paper's recipe: deltas from the trace's own mean absolute change — with
// two changes that keep a run's cost a property of the engine rather
// than of the seed. The recipe's random draws are fixed, so every seed
// runs the same multiples of its own trace's statistics. And slack is a
// quarter of delta with 250 ms sampling segments: at the paper's half
// delta and 1 s the twelve sets chain into regions of ~450 tuples whose
// closing Step takes 50-200 ms, and cost per tuple then swings by a
// factor of two with where in that tail a seed lands.
func buildGroupSources(seed int64, perSource int) ([]*sourceInput, error) {
	const (
		sources    = 4
		recipeSeed = 52
		segment    = 250 * time.Millisecond
	)
	out := make([]*sourceInput, sources)
	for i := range out {
		sr, err := trace.NAMOS(trace.Config{N: perSource, Seed: seed*1000 + int64(i)})
		if err != nil {
			return nil, err
		}
		sample, err := sr.Slice(0, min(sr.Len(), 10000))
		if err != nil {
			return nil, err
		}
		groups, err := quality.Table52(sample, recipeSeed)
		if err != nil {
			return nil, err
		}
		// G3 = DC1 on tmpr4, G5 = DC3, G6 = DC2, G7 = sampling; two
		// stateful filters reuse G3's deltas on the same attribute.
		var specs []quality.Spec
		specs = append(specs, groups[2].Specs...)
		specs = append(specs, groups[4].Specs[:2]...)
		specs = append(specs, groups[5].Specs[:2]...)
		specs = append(specs, groups[6].Specs...)
		for _, sp := range groups[2].Specs[:2] {
			sp.Kind = quality.SDC
			specs = append(specs, sp)
		}
		src := &sourceInput{name: fmt.Sprintf("buoy%d", i), schema: sr.Schema()}
		if src.tuples, err = slabbed(sr.Schema(), sr.Len(), func(i int, values []float64) { copy(values, sr.At(i).Values) }); err != nil {
			return nil, err
		}
		for j, sp := range specs {
			if sp.Kind == quality.SS {
				sp.Interval = segment
			} else {
				sp.Slack = sp.Delta / 4
			}
			src.subs = append(src.subs, subPlan{app: fmt.Sprintf("app%02d", j), spec: sp.String()})
		}
		out[i] = src
	}
	return out, nil
}

// slabbed builds n tuples on the trace generators' 10 ms grid whose
// structs and values live in two slabs, so the collector sees two
// objects, not millions, and its cycles during the timed phases are spent
// on the system's heap rather than on the inputs.
func slabbed(schema *tuple.Schema, n int, fill func(i int, values []float64)) ([]*tuple.Tuple, error) {
	width := schema.Len()
	slab, values := make([]tuple.Tuple, n), make([]float64, n*width)
	out := make([]*tuple.Tuple, n)
	for i := range slab {
		t := &slab[i]
		t.Values = values[i*width : (i+1)*width : (i+1)*width]
		ts := trace.Epoch.Add(time.Duration(i) * trace.DefaultInterval)
		if _, err := tuple.Reuse(t, schema, i, ts); err != nil {
			return nil, err
		}
		fill(i, t.Values)
		out[i] = t
	}
	return out, nil
}

// buildWalkSource generates one source of 1-attribute tuples — the
// smallest frame. With rising, every step is in [1, 2), so any DC1 spec
// with delta < 1 and slack 0 passes every tuple; otherwise the value is a
// random walk with steps uniform in [-2, 2).
func buildWalkSource(seed int64, n int, subs []subPlan, rising bool) ([]*sourceInput, error) {
	schema, err := tuple.NewSchema("v")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	src := &sourceInput{name: "feed", schema: schema, subs: subs}
	v := 0.0
	src.tuples, err = slabbed(schema, n, func(_ int, values []float64) {
		if rising {
			v += 1 + rng.Float64()
		} else {
			v += 4*rng.Float64() - 2
		}
		values[0] = v
	})
	if err != nil {
		return nil, err
	}
	return []*sourceInput{src}, nil
}
