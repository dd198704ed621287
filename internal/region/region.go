// Package region implements region-based segmentation (§2.3.2): grouping
// closed candidate sets into maximal families connected by time-cover
// intersection (Definitions 2-5), and detecting the earliest moment a
// region can no longer grow — the point where the greedy hitting-set
// algorithm may run without sacrificing optimality (Theorem 2) or the
// approximation ratio (Theorem 3).
package region

import (
	"math"
	"slices"
	"time"

	"gasf/internal/filter"
	"gasf/internal/tuple"
)

// Region is a maximal family of connected candidate sets (Definition 4).
type Region struct {
	// Sets are the member candidate sets, ordered by their earliest
	// timestamp; sets that start together keep the order they closed in.
	Sets []*filter.CandidateSet

	// tr is the tracker that extracted the region and lends it scratch;
	// nil for a Region built any other way.
	tr *Tracker
}

// Cover returns the region's time cover: the union of its sets' covers
// (Definition 5). Because member sets are connected, the union is the
// interval [min, max].
func (r *Region) Cover() (min, max time.Time) {
	min, max = r.Sets[0].MinTS(), r.Sets[0].MaxTS()
	for _, cs := range r.Sets[1:] {
		if cs.MinTS().Before(min) {
			min = cs.MinTS()
		}
		if cs.MaxTS().After(max) {
			max = cs.MaxTS()
		}
	}
	return min, max
}

// TupleCount returns the number of distinct tuples across the region's
// sets; the paper's region size, which drives the run-time predictor.
func (r *Region) TupleCount() int {
	// Members within one set are distinct, so single-set regions (the
	// common case) need no cross-set deduplication.
	if len(r.Sets) == 1 {
		return len(r.Sets[0].Members)
	}
	lo, hi, n := math.MaxInt, math.MinInt, 0
	for _, cs := range r.Sets {
		for _, m := range cs.Members {
			lo, hi = min(lo, m.Seq), max(hi, m.Seq)
		}
		n += len(cs.Members)
	}
	if lo == hi {
		// One tuple in every set, as in a pass-all group's regions.
		return 1
	}
	// Mark each member's sequence number once, in an index over the
	// region's narrow window of numbers.
	var idx *tuple.SeqIndex
	if r.tr != nil {
		idx = &r.tr.seqs
	} else {
		idx = new(tuple.SeqIndex)
	}
	idx.Reset(lo, hi, n)
	distinct := 0
	for _, cs := range r.Sets {
		for _, m := range cs.Members {
			if idx.Get(m.Seq) == 0 {
				idx.Set(m.Seq, 1)
				distinct++
			}
		}
	}
	return distinct
}

// ClosedByCut reports whether any member set was closed by a timely cut;
// used for the "percent of regions cut" metric (Fig 4.11).
func (r *Region) ClosedByCut() bool {
	for _, cs := range r.Sets {
		if cs.ClosedByCut {
			return true
		}
	}
	return false
}

// Tracker accumulates closed candidate sets and extracts regions as soon
// as they can no longer grow.
//
// A pending component can still grow in two ways only: an open candidate
// set whose earliest admitted tuple falls inside the component's cover may
// close into it, or a future set may start inside the cover. Since
// admissions happen at arrival and source timestamps are strictly
// increasing, a future set's cover starts after the current stream time;
// so a component is final once (a) every open set's earliest admitted
// timestamp is after the component's cover and (b) the stream has advanced
// to the end of the cover. This is the same condition as the paper's group
// utility check (a closed set containing a tuple whose utility exceeds the
// closed-set count implies an open set admitting it), expressed on time
// covers.
//
// Ordering invariant: pending is ordered by cover start at every moment,
// sets that start together in the order they were added. Add inserts at
// the upper bound, so no call ever sorts. Connectivity over intervals is
// interval overlap with transitive closure, so the components are the
// runs a start-ordered sweep merges: disjoint, ordered, each ending
// before the next begins.
//
// Prefix-monotone readiness: the finality test has the form "cover end <=
// now and < every open minimum", and a later component's cover ends later,
// so a test the head component fails is failed by every component behind
// it. Ready therefore looks at the head component only. Add keeps the
// head component's extent current, which makes a Ready that extracts
// nothing — nearly every call — O(1) beyond taking the minimum of
// openMins.
//
// Scratch lifetimes: the Regions a call returns, and their Sets slices,
// are backed by tracker-owned arrays and stay valid until the next Ready
// or Flush; the candidate sets themselves leave the tracker for good.
// Timestamps are compared as Unix nanoseconds, the range the wire format
// carries.
type Tracker struct {
	pending []span
	// pending[:headEnd] is the head component and headMax the end of its
	// cover; headEnd == 0 means not computed.
	headEnd int
	headMax int64

	// Scratch behind the last returned regions, and behind TupleCount.
	regions []Region
	sets    []*filter.CandidateSet
	seqs    tuple.SeqIndex
}

// span is a pending set with its cover bounds, decoded once at Add.
type span struct {
	cs       *filter.CandidateSet
	min, max int64
}

// Add registers a closed candidate set.
func (tr *Tracker) Add(cs *filter.CandidateSet) {
	sp := span{cs: cs, min: cs.MinTS().UnixNano(), max: cs.MaxTS().UnixNano()}
	// Scan for the upper bound from the end: inserting there moves the
	// same elements anyway, and sets that close now rarely started long
	// ago.
	pos := len(tr.pending)
	for pos > 0 && tr.pending[pos-1].min > sp.min {
		pos--
	}
	tr.pending = slices.Insert(tr.pending, pos, sp)
	switch {
	case tr.headEnd == 0:
	case pos == 0:
		// A new earliest set may or may not reach the old head; the next
		// Ready sweeps again.
		tr.headEnd = 0
	case sp.min <= tr.headMax:
		// It starts within the head's cover, so it was inserted no later
		// than right behind the head: it joins, and may bridge to what
		// follows.
		tr.headEnd++
		tr.headMax = max(tr.headMax, sp.max)
		tr.growHead()
	}
}

// growHead extends the head component over every following set that
// starts within its cover (touching covers are connected).
func (tr *Tracker) growHead() {
	for tr.headEnd < len(tr.pending) && tr.pending[tr.headEnd].min <= tr.headMax {
		tr.headMax = max(tr.headMax, tr.pending[tr.headEnd].max)
		tr.headEnd++
	}
}

// PendingSets returns the number of closed sets not yet emitted.
func (tr *Tracker) PendingSets() int { return len(tr.pending) }

// EarliestPending returns the earliest timestamp across pending sets, used
// by the cut controller to compute the current region span.
func (tr *Tracker) EarliestPending() (time.Time, bool) {
	if len(tr.pending) == 0 {
		return time.Time{}, false
	}
	return tr.pending[0].cs.MinTS(), true
}

// Ready extracts and returns every region that can no longer grow, given
// the earliest admitted timestamps of all currently open candidate sets
// and the current stream time (the timestamp of the most recently
// processed tuple). Extracted sets leave the tracker. The result is
// tracker-owned scratch (see Tracker).
func (tr *Tracker) Ready(openMins []time.Time, now time.Time) []Region {
	if len(tr.pending) == 0 {
		return nil
	}
	// "Ends at or before now and strictly before every open minimum" is
	// one bound on the cover end.
	bound := now.UnixNano()
	for _, om := range openMins {
		bound = min(bound, om.UnixNano()-1)
	}
	return tr.extract(bound)
}

// Flush extracts every remaining region regardless of growth potential;
// used at end of stream. The result is tracker-owned scratch (see
// Tracker).
func (tr *Tracker) Flush() []Region {
	return tr.extract(math.MaxInt64)
}

// extract removes the leading components whose cover ends at or before
// bound and returns them as regions, stopping at the first that does not.
func (tr *Tracker) extract(bound int64) []Region {
	// The previous call's scratch is dead now; drop its references.
	clear(tr.sets)
	clear(tr.regions)
	tr.sets, tr.regions = tr.sets[:0], tr.regions[:0]
	done := 0
	for done < len(tr.pending) {
		if tr.headEnd == 0 {
			tr.headEnd, tr.headMax = done+1, tr.pending[done].max
			tr.growHead()
		}
		if tr.headMax > bound {
			break
		}
		first := len(tr.sets)
		for _, sp := range tr.pending[done:tr.headEnd] {
			tr.sets = append(tr.sets, sp.cs)
		}
		// A Sets slice cut before tr.sets grew stays valid: the array it
		// points into is never written again.
		tr.regions = append(tr.regions, Region{Sets: tr.sets[first:len(tr.sets):len(tr.sets)], tr: tr})
		done, tr.headEnd = tr.headEnd, 0
	}
	if done == 0 {
		return nil
	}
	n := copy(tr.pending, tr.pending[done:])
	clear(tr.pending[n:])
	tr.pending = tr.pending[:n]
	if tr.headEnd > 0 {
		tr.headEnd -= done
	}
	return tr.regions
}
