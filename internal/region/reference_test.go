package region

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gasf/internal/filter"
)

// refTracker is the sort-and-sweep tracker the incremental one replaced,
// kept as the reference of the differential tests: it appends on Add,
// stable-sorts the whole pending list by start time on every Ready and
// Flush, and tests every component for finality.
type refTracker struct {
	pending []*filter.CandidateSet
}

func (tr *refTracker) Add(cs *filter.CandidateSet) { tr.pending = append(tr.pending, cs) }

func (tr *refTracker) sortPending() {
	slices.SortStableFunc(tr.pending, func(a, b *filter.CandidateSet) int {
		return a.MinTS().Compare(b.MinTS())
	})
}

// componentEnd returns the end index (exclusive) and cover maximum of the
// connected component starting at index i of the sorted pending slice.
func (tr *refTracker) componentEnd(i int) (int, time.Time) {
	curMax := tr.pending[i].MaxTS()
	j := i + 1
	for j < len(tr.pending) && !tr.pending[j].MinTS().After(curMax) {
		if tr.pending[j].MaxTS().After(curMax) {
			curMax = tr.pending[j].MaxTS()
		}
		j++
	}
	return j, curMax
}

// Ready returns the final components and whether each component, in
// start order, was final.
func (tr *refTracker) Ready(openMins []time.Time, now time.Time) (ready [][]*filter.CandidateSet, final []bool) {
	tr.sortPending()
	var keep []*filter.CandidateSet
	for i := 0; i < len(tr.pending); {
		j, max := tr.componentEnd(i)
		ok := !max.After(now)
		for _, om := range openMins {
			if !om.After(max) {
				ok = false
			}
		}
		final = append(final, ok)
		if ok {
			ready = append(ready, slices.Clone(tr.pending[i:j]))
		} else {
			keep = append(keep, tr.pending[i:j]...)
		}
		i = j
	}
	tr.pending = keep
	return ready, final
}

func (tr *refTracker) Flush() [][]*filter.CandidateSet {
	tr.sortPending()
	var out [][]*filter.CandidateSet
	for i := 0; i < len(tr.pending); {
		j, _ := tr.componentEnd(i)
		out = append(out, slices.Clone(tr.pending[i:j]))
		i = j
	}
	tr.pending = nil
	return out
}

// sameRegions compares extracted regions set pointer by set pointer, in
// order.
func sameRegions(got []Region, want [][]*filter.CandidateSet) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d regions, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Sets, want[i]) {
			return fmt.Errorf("region %d: sets %v, reference %v", i, got[i].Sets, want[i])
		}
	}
	return nil
}

// samePending compares the residual pending lists. The reference sorts
// lazily, so it is sorted here first; a stable sort of an already sorted
// list changes nothing.
func samePending(tr *Tracker, ref *refTracker) error {
	ref.sortPending()
	got := make([]*filter.CandidateSet, len(tr.pending))
	for i, sp := range tr.pending {
		got[i] = sp.cs
	}
	if !slices.Equal(got, ref.pending) {
		return fmt.Errorf("pending %v, reference %v", got, ref.pending)
	}
	if tr.PendingSets() != len(ref.pending) {
		return fmt.Errorf("PendingSets %d, reference %d", tr.PendingSets(), len(ref.pending))
	}
	return nil
}

// TestTrackerMatchesReference drives the incremental tracker and the
// sort-and-sweep reference with the same seeded interleavings of Add,
// Ready and Flush and requires identical regions, Sets order and residual
// pending list after every call. Starts arrive out of order, collide, and
// covers touch end to start; some sets are cut-closed; Ready is called
// with open minima and stream times on both sides of the pending covers,
// including stream times behind them, which the engine never produces but
// the tracker's contract allows.
func TestTrackerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			tr  Tracker
			ref refTracker
		)
		// clock drifts forward so that extracted prefixes are followed by
		// later sets, as in a stream; starts still jump back behind it.
		clock := 0
		for op := 0; op < 200; op++ {
			switch k := rng.Intn(10); {
			case k < 6:
				clock += rng.Intn(4)
				// Multiples of 5 make equal starts and touching covers common.
				start := max(0, clock-5*rng.Intn(8))
				start -= start % 5
				cs := setSpan(string(rune('A'+rng.Intn(4))), op, start, start+5*rng.Intn(5))
				cs.ClosedByCut = rng.Intn(8) == 0
				tr.Add(cs)
				ref.Add(cs)
			case k < 9:
				var openMins []time.Time
				for i := rng.Intn(4); i > 0; i-- {
					openMins = append(openMins, at(clock-20+rng.Intn(40)))
				}
				now := at(clock - 10 + rng.Intn(30))
				want, _ := ref.Ready(openMins, now)
				if err := sameRegions(tr.Ready(openMins, now), want); err != nil {
					t.Fatalf("seed %d op %d Ready: %v", seed, op, err)
				}
			default:
				if err := sameRegions(tr.Flush(), ref.Flush()); err != nil {
					t.Fatalf("seed %d op %d Flush: %v", seed, op, err)
				}
			}
			if err := samePending(&tr, &ref); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if e, ok := tr.EarliestPending(); ok != (len(ref.pending) > 0) || ok && !e.Equal(ref.pending[0].MinTS()) {
				t.Fatalf("seed %d op %d: EarliestPending %v %v", seed, op, e, ok)
			}
		}
	}
}

// TestReadinessIsPrefixMonotone pins the premise of Ready's early-out on
// the exhaustive reference: over random pending lists, open minima and
// stream times, the components found final are always a prefix of the
// start-ordered components — a head that is not final is never followed
// by one that is.
func TestReadinessIsPrefixMonotone(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ref refTracker
		for i := 1 + rng.Intn(12); i > 0; i-- {
			start := 5 * rng.Intn(30)
			ref.Add(setSpan("F", i, start, start+5*rng.Intn(6)))
		}
		var openMins []time.Time
		for i := rng.Intn(4); i > 0; i-- {
			openMins = append(openMins, at(rng.Intn(200)))
		}
		_, final := ref.Ready(openMins, at(rng.Intn(220)))
		for i := 1; i < len(final); i++ {
			if final[i] && !final[i-1] {
				t.Fatalf("seed %d: component %d final behind a non-final one: %v", seed, i, final)
			}
		}
	}
}

// TestTupleCountDistinct checks the sort-and-count-runs TupleCount on
// overlapping sets, for a tracker-extracted region (tracker scratch) and a
// hand-built one (no tracker).
func TestTupleCountDistinct(t *testing.T) {
	sets := []*filter.CandidateSet{
		setSpan("A", 0, 0, 10, 20), setSpan("B", 0, 10, 20, 30), setSpan("C", 0, 30, 40),
	}
	if got := (&Region{Sets: sets}).TupleCount(); got != 5 {
		t.Errorf("hand-built region: %d distinct tuples, want 5", got)
	}
	var tr Tracker
	for _, cs := range sets {
		tr.Add(cs)
	}
	regions := tr.Flush()
	for range 2 { // the second call reuses the scratch the first left
		if got := regions[0].TupleCount(); got != 5 {
			t.Errorf("extracted region: %d distinct tuples, want 5", got)
		}
	}
}
