package core

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// withClock makes read the engines' clock for the rest of the test.
func withClock(t *testing.T, read func() time.Time) {
	t.Helper()
	saved := clock
	clock = read
	t.Cleanup(func() { clock = saved })
}

// steppingClock is a clock that advances by step on every read and counts
// its reads.
type steppingClock struct {
	now   time.Time
	step  time.Duration
	reads int
}

func (c *steppingClock) read() time.Time {
	c.reads++
	c.now = c.now.Add(c.step)
	return c.now
}

// runGroup12 runs the mixed 12-filter group through a fresh retaining
// engine.
func runGroup12(t *testing.T, n int, opts Options) *Result {
	t.Helper()
	sr, build := group12(t, n, 41)
	res, err := Run(build(), sr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCutsIndependentOfClock: an RG engine with timely cuts decides where
// to cut from stream time and counted work, so one whose every clock read
// takes a second — a greedy that looks preempted on every region — cuts at
// the same tuples and releases exactly what an engine on the real clock
// does. An engine that predicted from measured greedy time cut every
// region here.
func TestCutsIndependentOfClock(t *testing.T) {
	for _, st := range []OutputStrategy{EarliestRegion, PerCandidateSet, Batched} {
		for _, delay := range []time.Duration{40 * time.Millisecond, 125 * time.Millisecond} {
			opts := Options{Algorithm: RG, Strategy: st, BatchSize: 7, Cuts: true, MaxDelay: delay}
			t.Run(fmt.Sprintf("%v/%v", st, delay), func(t *testing.T) {
				want := runGroup12(t, 3000, opts)
				slow := &steppingClock{step: time.Second}
				withClock(t, slow.read)
				got := runGroup12(t, 3000, opts)
				if slow.reads == 0 {
					t.Fatal("the slowed engine never read the clock")
				}
				if want.Stats.RegionsCut == 0 {
					t.Fatal("degenerate case: no region was cut")
				}
				if got.Stats.RegionsCut != want.Stats.RegionsCut || got.Stats.Regions != want.Stats.Regions {
					t.Fatalf("slowed clock: %d of %d regions cut, real clock %d of %d",
						got.Stats.RegionsCut, got.Stats.Regions, want.Stats.RegionsCut, want.Stats.Regions)
				}
				if len(got.Transmissions) != len(want.Transmissions) {
					t.Fatalf("slowed clock: %d transmissions, real clock %d", len(got.Transmissions), len(want.Transmissions))
				}
				for i, w := range want.Transmissions {
					g := got.Transmissions[i]
					if g.Tuple.Seq != w.Tuple.Seq || !g.ReleasedAt.Equal(w.ReleasedAt) || !slices.Equal(g.Destinations, w.Destinations) {
						t.Fatalf("transmission %d: slowed clock %d -> %v at %v, real clock %d -> %v at %v", i,
							g.Tuple.Seq, g.Destinations, g.ReleasedAt, w.Tuple.Seq, w.Destinations, w.ReleasedAt)
					}
				}
				if got.Stats.Work != want.Stats.Work {
					t.Fatalf("counted work differs: slowed clock %+v, real clock %+v", got.Stats.Work, want.Stats.Work)
				}
			})
		}
	}
}

// TestDrainedEngineReadsNoClock: a drained engine, the serving path's, never
// reads the clock — per step, per greedy, at a membership change or at
// Finish — under every algorithm, strategy and cut setting, while a
// retaining engine still measures Stats.CPU and, under RG, Stats.GreedyCPU.
// Both count the same work.
func TestDrainedEngineReadsNoClock(t *testing.T) {
	sr, build := group12(t, 2000, 41)
	for _, opts := range drainConfigs() {
		t.Run(fmt.Sprintf("%v/%v/cuts=%v", opts.Algorithm, opts.Strategy, opts.Cuts), func(t *testing.T) {
			c := &steppingClock{step: time.Microsecond}
			withClock(t, c.read)
			var stats [2]Stats
			var reads [2]int
			for k, mk := range []func(Options) (*Engine, error){NewDrainedEngine, NewDynamicEngine} {
				c.reads = 0
				e, err := mk(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range build() {
					if err := e.AddFilter(f); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < sr.Len(); i++ {
					churn(t, e, i)
					if err := e.Step(sr.At(i)); err != nil {
						t.Fatal(err)
					}
					e.Released()
				}
				if err := e.Finish(); err != nil {
					t.Fatal(err)
				}
				stats[k], reads[k] = e.Result().Stats, c.reads
			}
			drained, kept := stats[0], stats[1]
			if reads[0] != 0 || drained.CPU != 0 || drained.GreedyCPU != 0 {
				t.Fatalf("drained engine read the clock %d times (CPU %v, greedy %v)", reads[0], drained.CPU, drained.GreedyCPU)
			}
			if reads[1] == 0 || kept.CPU <= 0 {
				t.Fatalf("retaining engine: %d clock reads, CPU %v", reads[1], kept.CPU)
			}
			if opts.Algorithm == RG && kept.GreedyCPU <= 0 {
				t.Fatalf("retaining RG engine: GreedyCPU %v", kept.GreedyCPU)
			}
			if drained.Work != kept.Work {
				t.Fatalf("counted work differs: drained %+v, retaining %+v", drained.Work, kept.Work)
			}
			if drained.Work.Process < drained.Inputs || (opts.Algorithm == RG && (drained.Work.Incidences == 0 || drained.Work.Picks == 0)) {
				t.Fatalf("implausible work %+v for %d inputs", drained.Work, drained.Inputs)
			}
		})
	}
}
