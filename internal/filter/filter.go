// Package filter implements the group-aware stream filters of the paper:
// the filter contract of §2.2.2, reference-based candidate sets (§2.2.3),
// the delta-compression family used throughout the evaluation, and the
// extended taxonomy of Chapter 5 (trend and multi-attribute variants,
// stratified sampling with multi-degree candidacy, stateful candidate
// sets).
//
// A group-aware filter consumes a stream tuple by tuple and produces
// candidate sets: for each output the filter owes its application, the set
// of quality-equivalent tuples any one of which satisfies the application.
// The engine in internal/core coordinates a group of filters so that their
// chosen outputs overlap as much as possible.
package filter

import (
	"fmt"
	"time"

	"gasf/internal/tuple"
)

// Prescription says how outputs are picked from a candidate set when the
// set allows more than one quality-equivalent choice (§5.2, Fig 5.1).
type Prescription int

const (
	// Random lets the output decider pick any eligible tuples; it is the
	// default and the case that benefits most from group-awareness.
	Random Prescription = iota
	// Top restricts candidacy to the k highest-valued tuples of the set.
	Top
	// Bottom restricts candidacy to the k lowest-valued tuples.
	Bottom
)

// String implements fmt.Stringer.
func (p Prescription) String() string {
	switch p {
	case Random:
		return "random"
	case Top:
		return "top"
	case Bottom:
		return "bottom"
	default:
		return fmt.Sprintf("Prescription(%d)", int(p))
	}
}

// CandidateSet is the set of quality-equivalent tuples for one output a
// filter owes its application (§2.2.3). Choosing any PickDegree tuples from
// Eligible() satisfies the filter.
//
// Ownership: a filter hands a set over when it closes it (Event.Closed,
// Cut) and keeps no reference. Whoever received it may hold it for as long
// as it likes; a coordinating engine calls Recycle once the set's region
// is decided and released, after which the pointer and its Members array
// belong to the filter again and must not be read.
type CandidateSet struct {
	// Owner is the ID of the filter that produced the set.
	Owner string
	// Ordinal is the 0-based index of this set within its filter.
	Ordinal int
	// Members are the admitted candidates in arrival order.
	Members []*tuple.Tuple
	// Reference is the tuple a self-interested filter would have output,
	// when the set is reference-based; nil otherwise (e.g. sampling sets).
	Reference *tuple.Tuple
	// PickDegree is how many tuples must be chosen from the set
	// (1 for delta-compression; k for multi-degree sampling sets, §5.3).
	PickDegree int
	// Restrict narrows eligibility per the filter's prescription;
	// Random means all members are eligible.
	Restrict Prescription
	// RestrictAttr is the schema position used to rank members for
	// Top/Bottom restriction.
	RestrictAttr int
	// ClosedByCut records that a timely cut (§3.3) forced the closure.
	ClosedByCut bool

	// The fields below are the coordinating engine's per-set bookkeeping,
	// carried on the set so the engine keeps no map keyed by set pointer.
	// Filters leave them zero.

	// Slot is the owner's index in the engine's group when the set
	// closed. Membership may change while a set is pending, so the engine
	// trusts it only while that slot still holds Owner.
	Slot int
	// Accounted records that the members' group-utility contribution has
	// been removed.
	Accounted bool
	// Decided records that outputs were chosen before the set's region
	// closed (PS sets and stateful sets); Picks are those outputs.
	Decided bool
	Picks   []*tuple.Tuple

	// home is the free list of the filter that built the set; nil for
	// sets built any other way, which Recycle leaves to the collector.
	home *setPool
}

// setPool is one filter's free list of candidate sets. It is not shared:
// the filter takes from it when a set opens and the engine that owns the
// filter puts sets back, both under the engine's serialization.
//
// The list keeps every set that comes back. A set is built fresh only
// when the list is empty, so the list never holds more sets than the
// filter ever had out at once: its bound is the filter's high-water mark
// (one open set plus the closed ones of its largest pending regions), not
// a constant a large region would overflow.
type setPool struct {
	free []*CandidateSet
}

// take returns an empty set for the filter's next open set: a recycled one
// with whatever Members capacity it had, else a fresh one with room for n.
func (p *setPool) take(n int) *CandidateSet {
	if k := len(p.free); k > 0 {
		cs := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		return cs
	}
	return &CandidateSet{Members: make([]*tuple.Tuple, 0, n), home: p}
}

// Recycle hands the set and its Members and Picks arrays back to the
// filter that built it. The caller must hold the only reference; the set
// is emptied, so recycled memory pins no tuple.
func (cs *CandidateSet) Recycle() {
	p := cs.home
	if p == nil {
		return
	}
	// Field by field: a whole-struct assignment compiles to a block copy
	// of the set, which a pass-all step pays three times per tuple.
	clear(cs.Members)
	clear(cs.Picks)
	cs.Owner, cs.Ordinal = "", 0
	cs.Members, cs.Reference = cs.Members[:0], nil
	cs.PickDegree, cs.Restrict, cs.RestrictAttr, cs.ClosedByCut = 0, Random, 0, false
	cs.Slot, cs.Accounted, cs.Decided, cs.Picks = 0, false, false, cs.Picks[:0]
	p.free = append(p.free, cs)
}

// MinTS returns the earliest member timestamp; the lower bound of the
// set's time cover (Definition 1).
func (cs *CandidateSet) MinTS() time.Time { return cs.Members[0].TS }

// MaxTS returns the latest member timestamp; the upper bound of the set's
// time cover.
func (cs *CandidateSet) MaxTS() time.Time { return cs.Members[len(cs.Members)-1].TS }

// CoverIntersects reports whether the time covers of two candidate sets
// intersect (Definition 2: "connected").
func (cs *CandidateSet) CoverIntersects(other *CandidateSet) bool {
	return !cs.MaxTS().Before(other.MinTS()) && !other.MaxTS().Before(cs.MinTS())
}

// Contains reports whether the set contains the tuple with the given
// sequence number.
func (cs *CandidateSet) Contains(seq int) bool {
	for _, m := range cs.Members {
		if m.Seq == seq {
			return true
		}
	}
	return false
}

// Eligible returns the members that may be chosen as outputs, applying the
// Top/Bottom prescription if any. For Random (the default) it returns all
// members. The returned slice preserves arrival order.
func (cs *CandidateSet) Eligible() []*tuple.Tuple {
	if cs.Restrict == Random || cs.PickDegree >= len(cs.Members) {
		return cs.Members
	}
	// Rank by value at RestrictAttr; keep the top/bottom PickDegree,
	// including ties with the boundary value (the paper keeps ties).
	k := cs.PickDegree
	ranked := make([]*tuple.Tuple, len(cs.Members))
	copy(ranked, cs.Members)
	// Insertion sort: sets are small and this avoids an import cycle of
	// concerns; descending for Top, ascending for Bottom.
	less := func(a, b *tuple.Tuple) bool {
		if cs.Restrict == Top {
			return a.ValueAt(cs.RestrictAttr) > b.ValueAt(cs.RestrictAttr)
		}
		return a.ValueAt(cs.RestrictAttr) < b.ValueAt(cs.RestrictAttr)
	}
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0 && less(ranked[j], ranked[j-1]); j-- {
			ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
		}
	}
	boundary := ranked[k-1].ValueAt(cs.RestrictAttr)
	eligible := make([]*tuple.Tuple, 0, k)
	for _, m := range cs.Members {
		v := m.ValueAt(cs.RestrictAttr)
		switch cs.Restrict {
		case Top:
			if v >= boundary {
				eligible = append(eligible, m)
			}
		case Bottom:
			if v <= boundary {
				eligible = append(eligible, m)
			}
		}
	}
	return eligible
}

// String implements fmt.Stringer.
func (cs *CandidateSet) String() string {
	vals := make([]int, len(cs.Members))
	for i, m := range cs.Members {
		vals[i] = m.Seq
	}
	ref := -1
	if cs.Reference != nil {
		ref = cs.Reference.Seq
	}
	return fmt.Sprintf("cands{%s-%d seqs=%v ref=%d pick=%d}", cs.Owner, cs.Ordinal, vals, ref, cs.PickDegree)
}

// Event reports what happened inside a filter while processing one tuple.
// The engine uses it to maintain group utilities (admit increments, dismiss
// decrements) and to collect closed candidate sets.
type Event struct {
	// Admitted reports that the processed tuple joined the filter's open
	// candidate set (possibly tentatively; see Dismissed).
	Admitted bool
	// Dismissed lists tuples removed from the open set during this step:
	// tentative candidates that turned out to be more than slack away
	// from the reference, or whose contiguity broke (§2.3.3). The slice
	// may alias filter-internal buffers and is valid only until the next
	// call into the filter; consumers must not retain it.
	Dismissed []*tuple.Tuple
	// Closed is the candidate set that closed during this step, if any.
	// A single tuple may close the previous set and be admitted into the
	// next one; then both Closed and Admitted are set.
	Closed *CandidateSet
}

// Filter is the group-aware filter contract of §2.2.2: a data-selection
// operator that computes, online, a candidate set per owed output, closes
// each set before starting the next, and can be forced to close early.
//
// Implementations are not safe for concurrent use; the engine serializes
// calls per group.
type Filter interface {
	// ID identifies the filter within its group (e.g. "A", or an
	// application name).
	ID() string
	// Spec returns the human-readable filter specification, e.g.
	// "DC1(fluoro, 0.0301, 0.0150)".
	Spec() string
	// Process consumes the next stream tuple and reports admissions,
	// dismissals and set closure.
	Process(t *tuple.Tuple) (Event, error)
	// Cut force-closes the open candidate set for a timely cut (§3.3).
	// If the open set is owed to the application (it has a reference, or
	// is a sampling segment with data) it is returned closed; a
	// tentative-only buffer is dismissed instead, with the dismissed
	// tuples reported so group utilities can be decremented. Cut is also
	// used to flush at end of stream.
	Cut() (closed *CandidateSet, dismissed []*tuple.Tuple)
	// Stateful reports whether candidate-set computation depends on the
	// output chosen from the previous set (§2.3.3 "stateful candidate
	// sets"). Stateful filters must have their output decided as soon as
	// each set closes.
	Stateful() bool
	// ObserveChosen informs the filter of the outputs chosen from its
	// most recently closed candidate set. Only stateful filters react:
	// they rebase on the chosen tuple and re-evaluate the tuple that
	// closed the set, which may admit it into (or even close) the next
	// set — the returned Event reports those effects so the engine can
	// keep group utilities consistent.
	ObserveChosen(chosen []*tuple.Tuple) Event
	// SelfInterested returns a fresh baseline filter with the same
	// specification that selects outputs greedily for itself, with no
	// slack exploitation (the paper's SI baseline).
	SelfInterested() SIFilter
	// Reset returns the filter to its initial state.
	Reset()
}

// SIFilter is a self-interested (non-group-aware) filter used as the
// baseline in every experiment. Process returns the tuples selected at this
// step (usually none or one; sampling filters emit batches at segment
// boundaries). Flush returns any final selections at end of stream.
type SIFilter interface {
	ID() string
	Process(t *tuple.Tuple) []*tuple.Tuple
	Flush() []*tuple.Tuple
}
