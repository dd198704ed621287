package filter

import (
	"fmt"
	"math"

	"gasf/internal/tuple"
)

// StatefulDC is a delta-compression filter with stateful candidate sets
// (§2.3.3): each set's admission band is anchored on the output *chosen*
// from the previous set, not on a self-interested reference stream. The
// filter therefore needs its output decided as soon as each set closes,
// which is what the per-candidate-set greedy algorithm provides.
//
// Semantics: after a base value b (the previously chosen output's signal),
// the candidate set is the contiguous run of tuples whose signal v satisfies
// delta-slack <= |v-b| <= delta+slack. The first out-of-band tuple closes
// the set. A tuple that overshoots the band entirely (|v-b| > delta+slack)
// while no set is open forms a singleton set of its own, so the application
// still hears about abrupt jumps.
type StatefulDC struct {
	id    string
	sig   Signal
	delta float64
	slack float64

	started bool
	base    float64
	baseSet bool // base established by a chosen output
	ordinal int

	open     bool
	firstSet bool // the initial set anchors on the first tuple like stateless DC
	// cur is the open set, taken from the free list at its first member
	// and handed off whole at closure.
	cur  *CandidateSet
	sets setPool

	// pending is the tuple that closed the last set; it is re-evaluated
	// once the chosen output is observed, because it may belong to the
	// next set.
	pending    *tuple.Tuple
	pendingVal float64
	hasPending bool
}

var _ Filter = (*StatefulDC)(nil)

// NewStatefulDC builds a stateful (slack, delta) delta-compression filter
// over one attribute.
func NewStatefulDC(id, attr string, delta, slack float64) (*StatefulDC, error) {
	if id == "" {
		return nil, fmt.Errorf("filter: empty filter id")
	}
	if delta <= 0 {
		return nil, fmt.Errorf("filter %s: delta must be positive, got %g", id, delta)
	}
	if slack < 0 || slack > delta/2 {
		return nil, fmt.Errorf("filter %s: slack %g outside [0, delta/2]", id, slack)
	}
	return &StatefulDC{id: id, sig: NewAttrSignal(attr), delta: delta, slack: slack}, nil
}

// ID implements Filter.
func (f *StatefulDC) ID() string { return f.id }

// Spec implements Filter.
func (f *StatefulDC) Spec() string {
	return fmt.Sprintf("SDC(%s, %g, %g)", f.sig, f.delta, f.slack)
}

// Stateful implements Filter.
func (f *StatefulDC) Stateful() bool { return true }

// inBand reports whether v falls in the admission band around the base.
func (f *StatefulDC) inBand(v float64) bool {
	d := math.Abs(v - f.base)
	return d >= f.delta-f.slack && d <= f.delta+f.slack
}

// Process implements Filter.
func (f *StatefulDC) Process(t *tuple.Tuple) (Event, error) {
	v, err := f.sig.Value(t)
	if err != nil {
		return Event{}, err
	}
	if f.hasPending {
		return Event{}, fmt.Errorf("filter %s: Process called before ObserveChosen resolved the closed set", f.id)
	}
	if !f.started {
		// The initial set anchors on the first tuple: candidates are
		// the contiguous run within slack of it.
		f.started = true
		f.base = v
		f.firstSet = true
		f.openSet(t)
		return Event{Admitted: true}, nil
	}
	if f.open {
		ok := f.inBand(v)
		if f.firstSet {
			ok = math.Abs(v-f.base) <= f.slack
		}
		if ok {
			f.cur.Members = append(f.cur.Members, t)
			return Event{Admitted: true}, nil
		}
		// Out of band: close the set and park the tuple until the
		// chosen output rebases us.
		closed := f.closeSet(false)
		f.pending, f.pendingVal, f.hasPending = t, v, true
		return Event{Closed: closed}, nil
	}
	// No open set: a tuple entering the band opens one; an overshoot
	// forms a singleton set; anything else is ignored.
	return f.admitOrOvershoot(t, v), nil
}

// admitOrOvershoot handles a tuple arriving while no set is open.
func (f *StatefulDC) admitOrOvershoot(t *tuple.Tuple, v float64) Event {
	if f.inBand(v) {
		f.openSet(t)
		return Event{Admitted: true}
	}
	if math.Abs(v-f.base) > f.delta+f.slack {
		// Jumped over the band: owe the application a singleton set.
		f.openSet(t)
		closed := f.closeSet(false)
		// The set is closed immediately; the tuple is consumed, so
		// nothing is pending.
		return Event{Admitted: true, Closed: closed}
	}
	return Event{}
}

// openSet starts the open set with its first member, the set's reference.
func (f *StatefulDC) openSet(t *tuple.Tuple) {
	f.open = true
	f.cur = f.sets.take(1)
	f.cur.Reference = t
	f.cur.Members = append(f.cur.Members, t)
}

// closeSet finalizes the open set.
func (f *StatefulDC) closeSet(byCut bool) *CandidateSet {
	cs := f.cur
	cs.Owner, cs.Ordinal, cs.PickDegree, cs.ClosedByCut = f.id, f.ordinal, 1, byCut
	f.ordinal++
	f.open, f.firstSet = false, false
	f.cur = nil
	return cs
}

// ObserveChosen implements Filter: rebase on the chosen output and
// re-evaluate the tuple that closed the set (it may open — or, on a large
// jump, immediately close — the next set).
func (f *StatefulDC) ObserveChosen(chosen []*tuple.Tuple) Event {
	if len(chosen) == 0 {
		return Event{}
	}
	v, err := f.sig.Value(chosen[0])
	if err == nil {
		f.base = v
		f.baseSet = true
	}
	// Signal state: attrSignal keeps no history, so re-evaluating the
	// chosen tuple is safe. (StatefulDC only constructs attr signals.)
	if !f.hasPending {
		return Event{}
	}
	t, tv := f.pending, f.pendingVal
	f.pending, f.hasPending = nil, false
	return f.admitOrOvershoot(t, tv)
}

// Cut implements Filter.
func (f *StatefulDC) Cut() (*CandidateSet, []*tuple.Tuple) {
	if !f.open {
		return nil, nil
	}
	return f.closeSet(true), nil
}

// Reset implements Filter.
func (f *StatefulDC) Reset() {
	f.sig.Reset()
	f.started, f.open, f.firstSet, f.baseSet, f.hasPending = false, false, false, false, false
	f.base, f.ordinal = 0, 0
	f.cur, f.pending = nil, nil
	f.sets = setPool{}
}

// SelfInterested implements Filter: the baseline selects the first tuple,
// then every first tuple at least delta away from the last *selected*
// tuple — which for a stateful filter is the same recurrence as the
// stateless baseline.
func (f *StatefulDC) SelfInterested() SIFilter {
	return &siDC{id: f.id, sig: NewAttrSignal(f.sig.(*attrSignal).attr), delta: f.delta}
}
