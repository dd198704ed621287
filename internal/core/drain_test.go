package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"
	"unsafe"

	"gasf/internal/filter"
	"gasf/internal/tuple"
)

// drainConfigs are the option sets the drained-engine and pruning tests
// cover: every algorithm and output strategy, with and without timely
// cuts, so releases happen per region, per set and per batch.
func drainConfigs() []Options {
	var out []Options
	for _, alg := range []Algorithm{RG, PS} {
		for _, st := range []OutputStrategy{EarliestRegion, PerCandidateSet, Batched} {
			o := Options{Algorithm: alg, Strategy: st}
			if st == Batched {
				o.BatchSize = 7
			}
			out = append(out, o)
			o.Cuts, o.MaxDelay = true, 40*time.Millisecond
			out = append(out, o)
		}
	}
	return out
}

// churn applies the same membership changes to an engine at fixed points
// of the stream: one filter leaves and a new one joins.
func churn(t *testing.T, e *Engine, i int) {
	t.Helper()
	switch i {
	case 900:
		if err := e.RemoveFilter("app03"); err != nil {
			t.Fatal(err)
		}
	case 1700:
		f, err := filter.NewDC1("late", "fluoro", 0.4, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddFilter(f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainedEngineMatchesRetaining drives a drained and a retaining
// engine over the mixed 12-filter group with membership churn: what
// Released hands out call by call is the retaining engine's transmission
// sequence element for element, the counters agree, and the drained engine
// holds no history.
func TestDrainedEngineMatchesRetaining(t *testing.T) {
	sr, build := group12(t, 3000, 41)
	for _, opts := range drainConfigs() {
		t.Run(fmt.Sprintf("%v/%v/cuts=%v", opts.Algorithm, opts.Strategy, opts.Cuts), func(t *testing.T) {
			engines := [2]*Engine{}
			for k, mk := range []func(Options) (*Engine, error){NewDynamicEngine, NewDrainedEngine} {
				e, err := mk(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range build() {
					if err := e.AddFilter(f); err != nil {
						t.Fatal(err)
					}
				}
				engines[k] = e
			}
			keep, drain := engines[0], engines[1]
			var got, viaReleased []Transmission
			take := func() {
				// The drained engine's slice is scratch: copy before the
				// next call into the engine.
				got = append(got, drain.Released()...)
				viaReleased = append(viaReleased, keep.Released()...)
				if again := drain.Released(); len(again) != 0 {
					t.Fatalf("a second Released returned %d transmissions again", len(again))
				}
			}
			for i := 0; i < sr.Len(); i++ {
				churn(t, keep, i)
				churn(t, drain, i)
				take()
				for _, e := range engines {
					if err := e.Step(sr.At(i)); err != nil {
						t.Fatal(err)
					}
				}
				take()
			}
			for _, e := range engines {
				if err := e.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			take()

			want := keep.Result().Transmissions
			if len(want) == 0 {
				t.Fatal("degenerate case: nothing released")
			}
			for name, seq := range map[string][]Transmission{"drained engine": got, "retaining engine's Released": viaReleased} {
				if len(seq) != len(want) {
					t.Fatalf("%s handed out %d transmissions, want %d", name, len(seq), len(want))
				}
				for i := range want {
					if seq[i].Tuple != want[i].Tuple || !seq[i].ReleasedAt.Equal(want[i].ReleasedAt) ||
						!slices.Equal(seq[i].Destinations, want[i].Destinations) {
						t.Fatalf("%s: transmission %d is %v -> %v, want %v -> %v", name, i,
							seq[i].Tuple, seq[i].Destinations, want[i].Tuple, want[i].Destinations)
					}
				}
			}
			ks, ds := keep.Result().Stats, drain.Result().Stats
			if ks.Inputs != ds.Inputs || ks.DistinctOutputs != ds.DistinctOutputs || ks.Transmissions != ds.Transmissions ||
				ks.Deliveries != ds.Deliveries || ks.Regions != ds.Regions || ks.RegionsCut != ds.RegionsCut ||
				ks.RegionTupleSum != ds.RegionTupleSum || ks.MultiplexDisorder != ds.MultiplexDisorder {
				t.Fatalf("counters differ:\nretaining %+v\ndrained   %+v", ks, ds)
			}
			for id, n := range ks.PerFilter {
				if ds.PerFilter[id] != n {
					t.Fatalf("PerFilter[%s] = %d drained, %d retaining", id, ds.PerFilter[id], n)
				}
			}
			if len(ks.Latencies) != ks.Deliveries {
				t.Fatalf("retaining engine kept %d latency samples for %d deliveries", len(ks.Latencies), ks.Deliveries)
			}
			if r := drain.Result(); len(r.Transmissions) != 0 || len(r.Stats.Latencies) != 0 || len(r.Punctuations) != 0 {
				t.Fatalf("drained engine kept history: %d transmissions, %d latencies, %d punctuations",
					len(r.Transmissions), len(r.Stats.Latencies), len(r.Punctuations))
			}
		})
	}
}

// TestDistinctOutputsExactAfterPruning checks the record behind
// Stats.DistinctOutputs against ground truth — the distinct sequence
// numbers among everything a retaining engine released — on streams long
// enough for the record to be pruned many times, under the strategies that
// release one tuple more than once (a set decided for one filter, then the
// same tuple for another in a later step or batch). Each configuration
// runs twice: at the engine's own pruning cadence, where the record must
// stay far below the output count (pruning happens), and pruning after
// every step, where forgetting any tuple a step too early shows as a
// double count.
func TestDistinctOutputsExactAfterPruning(t *testing.T) {
	sr, build := group12(t, 12000, 77)
	for _, opts := range drainConfigs() {
		for _, everyStep := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/%v/cuts=%v/everyStep=%v", opts.Algorithm, opts.Strategy, opts.Cuts, everyStep), func(t *testing.T) {
				e, err := NewEngine(build(), opts)
				if err != nil {
					t.Fatal(err)
				}
				maxRecord := 0
				for i := 0; i < sr.Len(); i++ {
					if err := e.Step(sr.At(i)); err != nil {
						t.Fatal(err)
					}
					if everyStep {
						e.pruneReleased()
					}
					maxRecord = max(maxRecord, len(e.releasedQ))
				}
				if err := e.Finish(); err != nil {
					t.Fatal(err)
				}
				res := e.Result()
				seen := make(map[int]bool)
				for _, tr := range res.Transmissions {
					seen[tr.Tuple.Seq] = true
				}
				if res.Stats.DistinctOutputs != len(seen) {
					t.Fatalf("DistinctOutputs %d, ground truth %d (of %d transmissions)", res.Stats.DistinctOutputs, len(seen), len(res.Transmissions))
				}
				if want := float64(len(seen)) / float64(sr.Len()); res.Stats.OIRatio() != want {
					t.Fatalf("O/I %v, want %v", res.Stats.OIRatio(), want)
				}
				if opts.Algorithm == PS && opts.Strategy != EarliestRegion && len(res.Transmissions) == len(seen) {
					t.Fatal("degenerate case: no tuple was released twice")
				}
				if len(seen) < 4*minPruneReleased {
					t.Fatalf("degenerate case: %d distinct outputs never fill the record", len(seen))
				}
				if maxRecord > len(seen)/2 {
					t.Fatalf("the record reached %d of %d distinct outputs: it follows the stream, not the open regions", maxRecord, len(seen))
				}
			})
		}
	}
}

// TestDestinationListsShared pins the canonical destination lists: two
// transmissions carrying the same owner set share one list (same backing
// array), every list is sorted, and a membership change yields fresh lists
// while those handed out earlier keep their contents.
func TestDestinationListsShared(t *testing.T) {
	sr := dynSeries(t, 4000)
	e, err := NewDynamicEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range dynGroup(t) {
		if err := e.AddFilter(f); err != nil {
			t.Fatal(err)
		}
	}
	key := func(dests []string) string { return fmt.Sprint(dests) }
	first := func(dests []string) *string { return unsafe.SliceData(dests) }

	// lists maps an owner set to the list first seen carrying it.
	check := func(trs []Transmission, lists map[string]*string) (shared int) {
		for _, tr := range trs {
			if !slices.IsSorted(tr.Destinations) {
				t.Fatalf("unsorted destination list %v", tr.Destinations)
			}
			k := key(tr.Destinations)
			if p, ok := lists[k]; !ok {
				lists[k] = first(tr.Destinations)
			} else if p != first(tr.Destinations) {
				t.Fatalf("owner set %s carried by two different lists", k)
			} else {
				shared++
			}
		}
		return shared
	}
	before := make(map[string]*string)
	half := sr.Len() / 2
	for i := 0; i < half; i++ {
		if err := e.Step(sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	trs := e.Released()
	if shared := check(trs, before); shared < len(trs)/2 {
		t.Fatalf("only %d of %d transmissions shared a list", shared, len(trs))
	}
	snapshot := make(map[string][]string)
	for _, tr := range trs {
		snapshot[key(tr.Destinations)] = tr.Destinations
	}

	if err := e.RemoveFilter("A"); err != nil {
		t.Fatal(err)
	}
	e.Released() // what the removal itself released was decided under either membership
	after := make(map[string]*string)
	for i := half; i < sr.Len(); i++ {
		if err := e.Step(sr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	check(e.Released(), after)
	reused := 0
	for k, p := range after {
		if before[k] == p {
			reused++
		}
	}
	if reused != 0 {
		t.Fatalf("%d owner sets kept their list across a membership change; slots moved, so every list must be rebuilt", reused)
	}
	for k, dests := range snapshot {
		if key(dests) != k {
			t.Fatalf("list %s changed to %v after the membership change", k, dests)
		}
	}
}

// inert is a filter that admits nothing. Placed ahead of a group, 64 of
// them push every real filter past the slots an owner bitset covers, so
// the engine finds every destination by label: the path the slot-indexed
// bookkeeping must agree with.
type inert struct{ id string }

func (f inert) ID() string                                  { return f.id }
func (f inert) Spec() string                                { return "inert" }
func (f inert) Process(*tuple.Tuple) (filter.Event, error)  { return filter.Event{}, nil }
func (f inert) Cut() (*filter.CandidateSet, []*tuple.Tuple) { return nil, nil }
func (f inert) Stateful() bool                              { return false }
func (f inert) ObserveChosen([]*tuple.Tuple) filter.Event   { return filter.Event{} }
func (f inert) SelfInterested() filter.SIFilter             { return nil }
func (f inert) Reset()                                      {}

// TestSlotBookkeepingMatchesLabels holds the slot-indexed destinations and
// delivery counts to the label-keyed ones, under membership churn while
// outputs are staged: a batch buffer spanning the change, and the per-step
// buffer a departing filter's cut fills. A drained and a retaining engine
// on the group itself must release what an engine whose filters all sit
// past slot 64 releases, transmission by transmission, and count the same
// deliveries per filter — which also match the labels of what was
// released.
func TestSlotBookkeepingMatchesLabels(t *testing.T) {
	sr, build := group12(t, 3000, 43)
	// Departures from the front, the middle and the end of the group, and
	// two rejoins under a departed label, which take the last slot.
	leave := map[int]string{500: "app03", 900: "app00", 1100: "app11", 1300: "app03"}
	join := map[int]string{700: "app03", 1200: "app00"}
	churnAt := func(t *testing.T, e *Engine, i int) (staged int) {
		t.Helper()
		var err error
		if id, ok := leave[i]; ok {
			staged = len(e.batchBuf)
			err = e.RemoveFilter(id)
		} else if id, ok := join[i]; ok {
			var f filter.Filter
			if f, err = filter.NewDC1(id, "fluoro", 0.4, 0.2); err == nil {
				staged = len(e.batchBuf)
				err = e.AddFilter(f)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return staged
	}
	for _, alg := range []Algorithm{RG, PS} {
		for _, opts := range []Options{
			{Algorithm: alg, Strategy: Batched, BatchSize: 16},
			{Algorithm: alg, Strategy: Batched, BatchSize: 7, Cuts: true, MaxDelay: 60 * time.Millisecond},
			{Algorithm: alg, Strategy: PerCandidateSet},
			{Algorithm: alg, Strategy: PerCandidateSet, Cuts: true, MaxDelay: 60 * time.Millisecond},
		} {
			t.Run(fmt.Sprintf("%v/%v/cuts=%v", opts.Algorithm, opts.Strategy, opts.Cuts), func(t *testing.T) {
				var engines [3]*Engine
				for k, mk := range []func(Options) (*Engine, error){NewDrainedEngine, NewDynamicEngine, NewDynamicEngine} {
					e, err := mk(opts)
					if err != nil {
						t.Fatal(err)
					}
					if k == 2 {
						for i := range 64 {
							if err := e.AddFilter(inert{fmt.Sprintf("inert%02d", i)}); err != nil {
								t.Fatal(err)
							}
						}
					}
					for _, f := range build() {
						if err := e.AddFilter(f); err != nil {
							t.Fatal(err)
						}
					}
					engines[k] = e
				}
				var released [3][]Transmission
				staged := 0
				for i := 0; i < sr.Len(); i++ {
					for k, e := range engines {
						staged += churnAt(t, e, i)
						released[k] = append(released[k], e.Released()...)
						if err := e.Step(sr.At(i)); err != nil {
							t.Fatal(err)
						}
						released[k] = append(released[k], e.Released()...)
					}
				}
				for k, e := range engines {
					if err := e.Finish(); err != nil {
						t.Fatal(err)
					}
					released[k] = append(released[k], e.Released()...)
				}
				if opts.Strategy == Batched && staged == 0 {
					t.Fatal("degenerate case: no output was staged at a membership change")
				}
				want := released[2]
				labels := make(map[string]int)
				for _, tr := range want {
					for _, d := range tr.Destinations {
						labels[d]++
					}
				}
				for k, name := range []string{"drained", "retaining", "label-keyed"} {
					trs := released[k]
					if len(trs) != len(want) {
						t.Fatalf("%s engine released %d transmissions, the label-keyed one %d", name, len(trs), len(want))
					}
					for i := range want {
						if trs[i].Tuple != want[i].Tuple || !trs[i].ReleasedAt.Equal(want[i].ReleasedAt) ||
							!slices.Equal(trs[i].Destinations, want[i].Destinations) {
							t.Fatalf("%s engine: transmission %d is %d -> %v, label-keyed %d -> %v", name, i,
								trs[i].Tuple.Seq, trs[i].Destinations, want[i].Tuple.Seq, want[i].Destinations)
						}
					}
					if got := engines[k].Result().Stats.PerFilter; !maps.Equal(got, labels) {
						t.Fatalf("%s engine: PerFilter %v, labels released %v", name, got, labels)
					}
				}
			})
		}
	}
}
