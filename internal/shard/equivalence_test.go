package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/quality"
	"gasf/internal/trace"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// fingerprint serializes a result's released sequence with the wire
// encoding so equivalence is asserted byte-for-byte: release instant,
// destination labels and tuple payload of every transmission, in release
// order, plus any punctuations.
func fingerprint(t testing.TB, res *core.Result) []byte {
	t.Helper()
	var buf []byte
	for _, tr := range res.Transmissions {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(tr.ReleasedAt.UnixNano()))
		var err error
		buf, err = wire.AppendTransmission(buf, tr.Tuple, tr.Destinations)
		if err != nil {
			t.Fatalf("encoding transmission: %v", err)
		}
	}
	for _, p := range res.Punctuations {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.At.UnixNano()))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Horizon.UnixNano()))
	}
	return buf
}

// eqSource is one randomized (filter group, trace) pair of a case.
type eqSource struct {
	name  string
	sr    *tuple.Series
	specs []quality.Spec
	opts  core.Options
}

// build instantiates a fresh filter group from the source's specs, so the
// sequential and sharded runs never share filter state.
func (s eqSource) build(t testing.TB) []filter.Filter {
	t.Helper()
	out := make([]filter.Filter, len(s.specs))
	for i, sp := range s.specs {
		f, err := sp.Build(fmt.Sprintf("app%d", i+1))
		if err != nil {
			t.Fatalf("building %v: %v", sp, err)
		}
		out[i] = f
	}
	return out
}

// randomTrace picks one of the synthetic generators with a random length
// and seed.
func randomTrace(t testing.TB, rng *rand.Rand) *tuple.Series {
	t.Helper()
	n := 60 + rng.Intn(300)
	cfg := trace.Config{N: n, Seed: rng.Int63n(1 << 30)}
	var (
		sr  *tuple.Series
		err error
	)
	switch rng.Intn(4) {
	case 0:
		sr, err = trace.NAMOS(cfg)
	case 1:
		sr, err = trace.Cow(cfg)
	case 2:
		sr, err = trace.Seismic(cfg)
	default:
		sr, err = trace.FireHRR(cfg)
	}
	if err != nil {
		t.Fatalf("generating trace: %v", err)
	}
	return sr
}

// randomSpecs draws a filter group over the trace's schema, with deltas
// derived from the measured source statistic as §4.3 prescribes.
func randomSpecs(t testing.TB, rng *rand.Rand, sr *tuple.Series) []quality.Spec {
	t.Helper()
	attrs := sr.Schema().Names()
	count := 1 + rng.Intn(4)
	specs := make([]quality.Spec, count)
	for i := range specs {
		attr := attrs[rng.Intn(len(attrs))]
		stat, err := sr.MeanAbsChange(attr)
		if err != nil {
			t.Fatalf("stat for %s: %v", attr, err)
		}
		if stat == 0 {
			stat = 1e-6
		}
		delta := stat * (0.5 + 2.5*rng.Float64())
		// Axiom 1 requires slack <= delta/2.
		slack := delta * (0.1 + 0.38*rng.Float64())
		switch k := rng.Intn(10); {
		case k < 5:
			specs[i] = quality.Spec{Kind: quality.DC1, Attrs: []string{attr}, Delta: delta, Slack: slack}
		case k < 7:
			specs[i] = quality.Spec{Kind: quality.SDC, Attrs: []string{attr}, Delta: delta, Slack: slack}
		case k < 8 && len(attrs) >= 2:
			second := attrs[rng.Intn(len(attrs))]
			for second == attr {
				second = attrs[rng.Intn(len(attrs))]
			}
			specs[i] = quality.Spec{Kind: quality.DC3, Attrs: []string{attr, second}, Delta: delta, Slack: slack}
		case k < 9:
			// DC2 monitors the change rate per second; the traces tick
			// every 10 ms, so scale the statistic accordingly.
			specs[i] = quality.Spec{Kind: quality.DC2, Attrs: []string{attr}, Delta: delta * 100, Slack: slack * 100}
		default:
			specs[i] = quality.Spec{
				Kind:      quality.SS,
				Attrs:     []string{attr},
				Interval:  time.Duration(5+rng.Intn(16)) * trace.DefaultInterval,
				Threshold: stat * (0.5 + rng.Float64()),
				HighPct:   40 + 60*rng.Float64(),
				LowPct:    5 + 30*rng.Float64(),
				Prescription: []filter.Prescription{
					filter.Random, filter.Top, filter.Bottom,
				}[rng.Intn(3)],
			}
		}
	}
	return specs
}

// randomOptions draws engine options covering both algorithms, all output
// strategies, cuts and punctuations.
func randomOptions(rng *rand.Rand) core.Options {
	opts := core.Options{MulticastDelay: 12 * time.Millisecond}
	if rng.Intn(2) == 1 {
		opts.Algorithm = core.PS
	}
	switch rng.Intn(4) {
	case 0:
		opts.Strategy = core.PerCandidateSet
	case 1:
		opts.Strategy = core.Batched
		opts.BatchSize = 2 + rng.Intn(40)
	}
	if rng.Intn(10) < 3 {
		opts.Cuts = true
		opts.MaxDelay = time.Duration(30+rng.Intn(120)) * time.Millisecond
	}
	if rng.Intn(2) == 1 {
		opts.EmitPunctuations = true
	}
	if rng.Intn(5) == 0 {
		opts.Ties = core.PreferEarliest
	}
	return opts
}

// runSharded drives every source through one runtime, feeding each source
// from its own goroutine so the shards interleave work, and returns the
// per-source results.
func runSharded(t testing.TB, cfg Config, sources []eqSource) map[string]*core.Result {
	t.Helper()
	rt := New(cfg)
	for _, s := range sources {
		if err := rt.AddGroup(s.name, s.build(t), s.opts); err != nil {
			t.Fatalf("adding %s: %v", s.name, err)
		}
	}
	if err := rt.Start(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]*tuple.Series, len(sources))
	for _, s := range sources {
		series[s.name] = s.sr
	}
	if err := rt.FeedAll(series); err != nil {
		t.Fatalf("feed: %v", err)
	}
	return rt.Results()
}

// TestShardSequentialEquivalence is the acceptance property test: for
// randomized (filter group, trace) cases across algorithms, strategies,
// cuts, shard counts and queue sizes, the sharded runtime's per-source
// released sequence is byte-identical to a sequential core.Run of the
// same group over the same trace.
func TestShardSequentialEquivalence(t *testing.T) {
	runEquivalenceCases(t, 20260730, 20, 3) // 60 randomized (group, trace) pairs
}

// TestShardEquivalenceAcrossGOMAXPROCS re-runs the byte-identical
// harness with the scheduler pinned to 1 and then 4 procs: the batched
// ring pipeline must be oblivious to how much real parallelism backs the
// shard workers (single-proc interleaving and true concurrency hit
// different park/unpark and drain-run paths).
func TestShardEquivalenceAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			runEquivalenceCases(t, 20260731+int64(procs), 6, 3)
		})
	}
}

func runEquivalenceCases(t *testing.T, seed int64, cases, sourcesPerCase int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < cases; c++ {
		cfg := Config{
			Shards:     1 + rng.Intn(8),
			QueueDepth: 1 + rng.Intn(32),
			FlushBatch: 1 + rng.Intn(8),
		}
		sources := make([]eqSource, sourcesPerCase)
		for i := range sources {
			sr := randomTrace(t, rng)
			sources[i] = eqSource{
				name:  fmt.Sprintf("case%d-src%d", c, i),
				sr:    sr,
				specs: randomSpecs(t, rng, sr),
				opts:  randomOptions(rng),
			}
		}
		got := runSharded(t, cfg, sources)
		for _, s := range sources {
			want, err := core.Run(s.build(t), s.sr, s.opts)
			if err != nil {
				t.Fatalf("case %d %s: sequential run: %v", c, s.name, err)
			}
			sh, ok := got[s.name]
			if !ok {
				t.Fatalf("case %d: no sharded result for %s", c, s.name)
			}
			if !bytes.Equal(fingerprint(t, sh), fingerprint(t, want)) {
				t.Errorf("case %d %s (shards=%d queue=%d flush=%d, %d filters, alg=%v strat=%v cuts=%v): sharded released sequence differs from sequential\nsharded:    %d transmissions\nsequential: %d transmissions",
					c, s.name, cfg.Shards, cfg.QueueDepth, cfg.FlushBatch,
					len(s.specs), s.opts.Algorithm, s.opts.Strategy, s.opts.Cuts,
					sh.Stats.Transmissions, want.Stats.Transmissions)
			}
			if sh.Stats.DistinctOutputs != want.Stats.DistinctOutputs {
				t.Errorf("case %d %s: distinct outputs %d != sequential %d",
					c, s.name, sh.Stats.DistinctOutputs, want.Stats.DistinctOutputs)
			}
		}
	}
}

// runSunk drives every source through one runtime whose engines come from
// newEngine (joined by their filters before the first tuple) and returns,
// per source, the transmission sequence the sink received, plus the
// engines' results.
func runSunk(t testing.TB, cfg Config, sources []eqSource, newEngine func(core.Options) (*core.Engine, error)) (map[string][]core.Transmission, map[string]*core.Result) {
	t.Helper()
	rt := New(cfg)
	series := make(map[string]*tuple.Series, len(sources))
	for _, s := range sources {
		e, err := newEngine(s.opts)
		if err != nil {
			t.Fatalf("engine for %s: %v", s.name, err)
		}
		for _, f := range s.build(t) {
			if err := e.AddFilter(f); err != nil {
				t.Fatalf("joining %s: %v", s.name, err)
			}
		}
		if err := rt.AddSource(s.name, e); err != nil {
			t.Fatalf("adding %s: %v", s.name, err)
		}
		series[s.name] = s.sr
	}
	var mu sync.Mutex
	sunk := make(map[string][]core.Transmission)
	if err := rt.Start(context.Background(), func(batch []Out) {
		// The batch is the worker's scratch: copy what is kept.
		mu.Lock()
		for _, o := range batch {
			sunk[o.Source] = append(sunk[o.Source], o.Tr)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.FeedAll(series); err != nil {
		t.Fatalf("feed: %v", err)
	}
	return sunk, rt.Results()
}

// TestShardSinkEquivalenceCollectVsDrain is the equivalence property for
// the two kinds of engine a runtime serves: over randomized (filter group,
// trace) cases the sink receives, per source, the byte-identical
// transmission sequence whether the engines retain their releases (what
// core.Run, RunSharded and the embedded broker use) or are drained (the
// TCP server) — and that sequence is the sequential core.Run's. A drained
// engine's result keeps the counters and nothing else.
func TestShardSinkEquivalenceCollectVsDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	for c := 0; c < 12; c++ {
		cfg := Config{Shards: 1 + rng.Intn(4), QueueDepth: 1 + rng.Intn(32), FlushBatch: 1 + rng.Intn(8)}
		sources := make([]eqSource, 3)
		for i := range sources {
			sr := randomTrace(t, rng)
			sources[i] = eqSource{name: fmt.Sprintf("case%d-src%d", c, i), sr: sr, specs: randomSpecs(t, rng, sr), opts: randomOptions(rng)}
		}
		kept, keptRes := runSunk(t, cfg, sources, core.NewDynamicEngine)
		drained, drainedRes := runSunk(t, cfg, sources, core.NewDrainedEngine)
		for _, s := range sources {
			want, err := core.Run(s.build(t), s.sr, s.opts)
			if err != nil {
				t.Fatalf("case %d %s: sequential run: %v", c, s.name, err)
			}
			ref := fingerprint(t, &core.Result{Transmissions: want.Transmissions})
			for mode, sunk := range map[string][]core.Transmission{"collecting": kept[s.name], "draining": drained[s.name]} {
				if !bytes.Equal(fingerprint(t, &core.Result{Transmissions: sunk}), ref) {
					t.Errorf("case %d %s (alg=%v strat=%v cuts=%v): the %s runtime's sink saw %d transmissions that differ from the sequential run's %d",
						c, s.name, s.opts.Algorithm, s.opts.Strategy, s.opts.Cuts, mode, len(sunk), len(want.Transmissions))
				}
			}
			k, d := keptRes[s.name], drainedRes[s.name]
			if len(k.Transmissions) != len(want.Transmissions) || len(k.Stats.Latencies) != len(want.Stats.Latencies) {
				t.Errorf("case %d %s: collecting engine kept %d transmissions and %d latencies, want %d and %d",
					c, s.name, len(k.Transmissions), len(k.Stats.Latencies), len(want.Transmissions), len(want.Stats.Latencies))
			}
			if len(d.Transmissions) != 0 || len(d.Stats.Latencies) != 0 {
				t.Errorf("case %d %s: drained engine kept %d transmissions and %d latencies", c, s.name, len(d.Transmissions), len(d.Stats.Latencies))
			}
			if d.Stats.DistinctOutputs != want.Stats.DistinctOutputs || d.Stats.Transmissions != want.Stats.Transmissions ||
				d.Stats.Deliveries != want.Stats.Deliveries || d.Stats.Inputs != want.Stats.Inputs {
				t.Errorf("case %d %s: drained counters %+v differ from the sequential run's %+v", c, s.name, d.Stats, want.Stats)
			}
		}
	}
}

// TestShardPaperExampleEquivalence pins the worked ten-tuple example: the
// sharded runtime must reproduce Fig 2.8 exactly, like the sequential
// engine does.
func TestShardPaperExampleEquivalence(t *testing.T) {
	mk := func() []filter.Filter {
		a, _ := filter.NewDC1("A", "temperature", 50, 10)
		b, _ := filter.NewDC1("B", "temperature", 40, 5)
		c, _ := filter.NewDC1("C", "temperature", 80, 25)
		return []filter.Filter{a, b, c}
	}
	sr := trace.PaperExample()
	opts := core.Options{Algorithm: core.RG}
	want, err := core.Run(mk(), sr, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(Config{Shards: 4, QueueDepth: 2, FlushBatch: 1})
	if err := rt.AddGroup("temp", mk(), opts); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sunk int
	if err := rt.Start(context.Background(), func(batch []Out) {
		mu.Lock()
		sunk += len(batch)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sr.Len(); i++ {
		if err := rt.Feed("temp", sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	got := rt.Results()["temp"]
	if !bytes.Equal(fingerprint(t, got), fingerprint(t, want)) {
		t.Errorf("sharded paper example differs from sequential run")
	}
	if got.Stats.DistinctOutputs != 3 {
		t.Errorf("distinct outputs = %d, want 3", got.Stats.DistinctOutputs)
	}
	if sunk != got.Stats.Transmissions {
		t.Errorf("sink saw %d transmissions, result has %d", sunk, got.Stats.Transmissions)
	}
}
