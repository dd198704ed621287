package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// TestLatenciesDerivedAtFinish holds the latency samples a retaining
// engine derives in Finish to a computation made while the stream runs:
// every transmission Released hands out after a Step is stamped, per
// destination, with that step's tuple time minus its own tuple's time plus
// the multicast delay. Before Finish the slice is empty, a second Finish
// leaves it as it is, and a drained engine keeps none.
func TestLatenciesDerivedAtFinish(t *testing.T) {
	combos := []Options{
		{Algorithm: RG},
		{Algorithm: RG, Cuts: true, MaxDelay: 50 * time.Millisecond},
		{Algorithm: RG, Strategy: Batched, BatchSize: 64},
		{Algorithm: PS},
		{Algorithm: PS, Strategy: PerCandidateSet},
		{Algorithm: PS, Cuts: true, MaxDelay: 50 * time.Millisecond, Strategy: PerCandidateSet, MulticastDelay: 7 * time.Millisecond},
	}
	for seed := int64(1); seed <= 12; seed++ {
		opts := combos[int(seed)%len(combos)]
		t.Run(fmt.Sprintf("seed%d/%v/%v", seed, opts.Algorithm, opts.Strategy), func(t *testing.T) {
			sr := randomWalk(seed, 500)
			rng := rand.New(rand.NewSource(seed + 7))
			keep, err := NewEngine(randomGroup(rng), opts)
			if err != nil {
				t.Fatal(err)
			}
			rng = rand.New(rand.NewSource(seed + 7))
			drain, err := NewDrainedEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range randomGroup(rng) {
				if err := drain.AddFilter(f); err != nil {
					t.Fatal(err)
				}
			}
			var want []time.Duration
			collect := func(now time.Time) {
				for _, tr := range keep.Released() {
					for range tr.Destinations {
						want = append(want, now.Sub(tr.Tuple.TS)+opts.MulticastDelay)
					}
				}
				drain.Released()
			}
			var last time.Time
			for i := 0; i < sr.Len(); i++ {
				tu := sr.At(i)
				for _, e := range []*Engine{keep, drain} {
					if err := e.Step(tu); err != nil {
						t.Fatal(err)
					}
				}
				last = tu.TS
				collect(last)
				if i == sr.Len()/2 && len(keep.Result().Stats.Latencies) != 0 {
					t.Fatalf("%d latency samples before Finish, want none", len(keep.Result().Stats.Latencies))
				}
			}
			for _, e := range []*Engine{keep, drain} {
				if err := e.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			collect(last)

			st := &keep.Result().Stats
			if len(want) == 0 {
				t.Fatal("degenerate case: nothing delivered")
			}
			if len(st.Latencies) != st.Deliveries || len(st.Latencies) != len(want) {
				t.Fatalf("%d latency samples, %d deliveries, %d computed", len(st.Latencies), st.Deliveries, len(want))
			}
			if cap(st.Latencies) != len(st.Latencies) {
				t.Errorf("latency slice has capacity %d for %d samples, want an exact allocation", cap(st.Latencies), len(st.Latencies))
			}
			for i := range want {
				if st.Latencies[i] != want[i] {
					t.Fatalf("sample %d: %v, computed %v", i, st.Latencies[i], want[i])
				}
			}
			first := &st.Latencies[0]
			if err := keep.Finish(); err != nil {
				t.Fatal(err)
			}
			if len(st.Latencies) != len(want) || &st.Latencies[0] != first {
				t.Error("a second Finish rebuilt the latency samples")
			}
			if n := len(drain.Result().Stats.Latencies); n != 0 {
				t.Errorf("drained engine kept %d latency samples", n)
			}
		})
	}
}

// TestReleaseOrder covers the order outputs leave mergeRelease in: by
// sequence number, outputs of one tuple in the order they were staged.
// sortPending is checked directly on a buffer staged out of order with
// ties; the engine runs check it end to end under the two strategies that
// stage out of order — EarliestRegion, whose decided stateful picks merge
// with a region's greedy picks, and Batched, whose buffer spans regions and
// takes decided picks as they are made. Each call to Released after a Step
// must then be in sequence order.
func TestReleaseOrder(t *testing.T) {
	// Forty outputs over seven tuples, staged out of sequence order;
	// each carries its staging index as its label.
	schema := tuple.MustSchema("v")
	tuples := make([]*tuple.Tuple, 7)
	for seq := range tuples {
		tuples[seq] = tuple.MustNew(schema, seq, trace.Epoch.Add(time.Duration(seq)*time.Millisecond), []float64{0})
	}
	var outs []pendingOut
	for i := range 40 {
		outs = append(outs, pendingOut{t: tuples[(39-i)%7], dest: fmt.Sprint(i)})
	}
	sortPending(outs)
	for i := 1; i < len(outs); i++ {
		a, b := outs[i-1], outs[i]
		ai, _ := strconv.Atoi(a.dest)
		bi, _ := strconv.Atoi(b.dest)
		if b.t.Seq < a.t.Seq || (b.t.Seq == a.t.Seq && bi < ai) {
			t.Fatalf("sorted output %d is tuple %d staged %d, after tuple %d staged %d", i, b.t.Seq, bi, a.t.Seq, ai)
		}
	}

	sr, build := group12(t, 6000, 41)
	for _, opts := range []Options{{Strategy: EarliestRegion}, {Strategy: Batched, BatchSize: 64}} {
		t.Run(opts.Strategy.String(), func(t *testing.T) {
			e, err := NewEngine(build(), opts)
			if err != nil {
				t.Fatal(err)
			}
			windows := 0
			check := func() {
				trs := e.Released()
				if len(trs) > 1 {
					windows++
				}
				for i := 1; i < len(trs); i++ {
					if trs[i].Tuple.Seq <= trs[i-1].Tuple.Seq {
						t.Fatalf("released seq %d after %d in one step", trs[i].Tuple.Seq, trs[i-1].Tuple.Seq)
					}
				}
			}
			for i := 0; i < sr.Len(); i++ {
				if err := e.Step(sr.At(i)); err != nil {
					t.Fatal(err)
				}
				check()
			}
			if err := e.Finish(); err != nil {
				t.Fatal(err)
			}
			check()
			if windows == 0 {
				t.Fatal("degenerate case: no step released more than one transmission")
			}
		})
	}
}
