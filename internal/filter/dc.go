package filter

import (
	"fmt"
	"math"
	"time"

	"gasf/internal/tuple"
)

// phase of the stateless delta-compression state machine.
type dcPhase int

const (
	// dcSeekRef: no reference yet for the current owed output; tuples that
	// could be within slack of the upcoming reference are admitted
	// tentatively (§2.3.3: "isAdmissible may tentatively admit tuples
	// based on estimates of the next reference tuple").
	dcSeekRef dcPhase = iota
	// dcInRef: the reference has arrived; tuples within slack of it are
	// admitted until the first violation closes the set.
	dcInRef
)

// DC is a (slack, delta) delta-compression group-aware filter over an
// arbitrary monitored signal. It generalizes the DC1/DC2/DC3 types of
// Table 5.1, which differ only in their candidate-computation signal.
//
// Semantics (§2.1, §2.2.3): a self-interested DC filter outputs the first
// tuple, then every first tuple whose signal differs from the last
// reference by at least delta. The group-aware version computes, for each
// such reference tuple, the candidate set of tuples that are contiguous
// with it and within slack of its signal value; any one of them is a
// quality-equivalent output.
type DC struct {
	id          string
	kind        string // "DC1", "DC2", "DC3" for spec printing
	sig         Signal
	delta       float64
	slack       float64
	specSummary string

	// scale degrades (or restores) granularity at run time (§3.1):
	// the effective delta and slack are scale times the configured
	// values. Changes take effect when the next candidate set starts;
	// the open set keeps the slack it was opened with.
	scale    float64
	curSlack float64

	started bool
	phase   dcPhase
	lastRef float64 // signal value of the last reference
	ordinal int     // ordinal of the next set to close

	// Open set state (dcInRef). cur is the open set itself, taken from
	// the free list when the reference arrives and handed off whole at
	// closure; the tentative buffer is recycled in place.
	refVal float64
	cur    *CandidateSet
	sets   setPool

	// Tentative buffer (dcSeekRef).
	tentative []*tuple.Tuple
	tentVals  []float64
}

var _ Filter = (*DC)(nil)

// newDC validates parameters shared by every DC variant.
func newDC(id, kind string, sig Signal, delta, slack float64, spec string) (*DC, error) {
	if id == "" {
		return nil, fmt.Errorf("filter: empty filter id")
	}
	if delta <= 0 {
		return nil, fmt.Errorf("filter %s: delta must be positive, got %g", id, delta)
	}
	if slack < 0 {
		return nil, fmt.Errorf("filter %s: slack must be non-negative, got %g", id, slack)
	}
	// Axiom 1 needs slack < delta/2 to keep time covers disjoint; the
	// paper calls that "normally desirable" and its experiments use
	// slack <= 50% of delta. We accept slack up to delta/2.
	if slack > delta/2 {
		return nil, fmt.Errorf("filter %s: slack %g exceeds delta/2 (%g); violates Axiom 1", id, slack, delta/2)
	}
	return &DC{id: id, kind: kind, sig: sig, delta: delta, slack: slack, specSummary: spec, scale: 1}, nil
}

// NewDC1 builds a single-attribute delta-compression filter:
// DC1(attr, delta, slack).
func NewDC1(id, attr string, delta, slack float64) (*DC, error) {
	return newDC(id, "DC1", NewAttrSignal(attr), delta, slack,
		fmt.Sprintf("DC1(%s, %g, %g)", attr, delta, slack))
}

// NewDC2 builds a trend delta-compression filter: it monitors the change
// rate of attr per unit time (Table 5.1). A zero unit defaults to one
// second.
func NewDC2(id, attr string, delta, slack float64, unit time.Duration) (*DC, error) {
	return newDC(id, "DC2", NewTrendSignal(attr, unit), delta, slack,
		fmt.Sprintf("DC2(%s, %g, %g)", attr, delta, slack))
}

// NewDC3 builds a multi-attribute average delta-compression filter
// (Table 5.1): it monitors the mean of the given attributes.
func NewDC3(id string, attrs []string, delta, slack float64) (*DC, error) {
	sig, err := NewAvgSignal(attrs...)
	if err != nil {
		return nil, err
	}
	return newDC(id, "DC3", sig, delta, slack,
		fmt.Sprintf("DC3(%s, %g, %g)", sig, delta, slack))
}

// NewDCSignal builds a delta-compression filter over a caller-supplied
// signal; the extension hook of §5.3 for domain-specific candidate
// computation (distance functions, membership functions).
func NewDCSignal(id string, sig Signal, delta, slack float64) (*DC, error) {
	return newDC(id, "DC", sig, delta, slack,
		fmt.Sprintf("DC(%s, %g, %g)", sig, delta, slack))
}

// ID implements Filter.
func (f *DC) ID() string { return f.id }

// Spec implements Filter.
func (f *DC) Spec() string { return f.specSummary }

// Delta returns the compression granularity parameter.
func (f *DC) Delta() float64 { return f.delta }

// Slack returns the quality-slack parameter.
func (f *DC) Slack() float64 { return f.slack }

// SignalName returns the description of the monitored signal.
func (f *DC) SignalName() string { return f.sig.String() }

// Scale returns the current granularity degradation factor (1 = the
// configured granularity).
func (f *DC) Scale() float64 { return f.scale }

// SetScale degrades (scale > 1) or restores the filter's granularity at
// run time: the effective delta and slack become scale times the
// configured values, starting with the next candidate set. This is the
// adaptation hook of §3.1 ("applications ... are willing to adapt their
// data requirements according to system conditions"). Scale must be
// positive.
func (f *DC) SetScale(scale float64) error {
	if scale <= 0 {
		return fmt.Errorf("filter %s: scale must be positive, got %g", f.id, scale)
	}
	f.scale = scale
	return nil
}

// Stateful implements Filter: reference-based candidate sets are stateless
// (§2.3.3) — the reference stream is independent of chosen outputs.
func (f *DC) Stateful() bool { return false }

// ObserveChosen implements Filter; stateless filters ignore it.
func (f *DC) ObserveChosen([]*tuple.Tuple) Event { return Event{} }

// Process implements Filter.
func (f *DC) Process(t *tuple.Tuple) (Event, error) {
	v, err := f.sig.Value(t)
	if err != nil {
		return Event{}, err
	}
	if !f.started {
		// The first tuple is the first reference (a self-interested DC
		// filter always outputs the first tuple).
		f.started = true
		f.openSet(t, v, nil)
		return Event{Admitted: true}, nil
	}
	switch f.phase {
	case dcInRef:
		if math.Abs(v-f.refVal) <= f.curSlack {
			f.cur.Members = append(f.cur.Members, t)
			return Event{Admitted: true}, nil
		}
		// Violation: close the set, then re-process this tuple in the
		// seek phase — it may be tentative for, or even be, the next
		// reference.
		closed := f.closeSet(false)
		ev := f.seek(t, v)
		ev.Closed = closed
		return ev, nil
	case dcSeekRef:
		return f.seek(t, v), nil
	default:
		return Event{}, fmt.Errorf("filter %s: corrupt phase %d", f.id, f.phase)
	}
}

// seek handles a tuple while no reference has arrived for the next set.
func (f *DC) seek(t *tuple.Tuple, v float64) Event {
	delta, slack := f.delta*f.scale, f.slack*f.scale
	if math.Abs(v-f.lastRef) >= delta {
		// Reference found. Keep the suffix of the tentative buffer that
		// is contiguous with the reference and within slack of it;
		// dismiss the rest (§2.3.3 "check and dismiss candidates that
		// are more than slack away from the reference output").
		keepFrom := len(f.tentative)
		for i := len(f.tentative) - 1; i >= 0; i-- {
			if math.Abs(f.tentVals[i]-v) <= slack {
				keepFrom = i
			} else {
				break
			}
		}
		// The dismissed view stays valid until the next call into the
		// filter (the Event contract); the engine consumes it before then.
		dismissed := f.tentative[:keepFrom]
		f.openSet(t, v, f.tentative[keepFrom:])
		return Event{Admitted: true, Dismissed: dismissed}
	}
	if math.Abs(v-f.lastRef) >= delta-slack {
		// Potential candidate for the upcoming reference: admit
		// tentatively.
		f.tentative = append(f.tentative, t)
		f.tentVals = append(f.tentVals, v)
		return Event{Admitted: true}
	}
	// Contiguity break: the tuple is neither admissible nor a reference,
	// so any tentative candidates can no longer be contiguous with the
	// eventual reference.
	if len(f.tentative) == 0 {
		return Event{}
	}
	dismissed := f.tentative
	// Recycle the buffer in place: the dismissed view is consumed before
	// the next call can append into it again.
	f.tentative, f.tentVals = f.tentative[:0], f.tentVals[:0]
	return Event{Dismissed: dismissed}
}

// openSet starts the open candidate set around reference t; the tentative
// buffer is recycled.
func (f *DC) openSet(ref *tuple.Tuple, refVal float64, kept []*tuple.Tuple) {
	f.phase = dcInRef
	f.curSlack = f.slack * f.scale
	f.refVal = refVal
	f.cur = f.sets.take(len(kept) + 1)
	f.cur.Reference = ref
	f.cur.Members = append(append(f.cur.Members, kept...), ref)
	f.tentative, f.tentVals = f.tentative[:0], f.tentVals[:0]
}

// closeSet finalizes the open set and transitions to seeking the next
// reference.
func (f *DC) closeSet(byCut bool) *CandidateSet {
	cs := f.cur
	cs.Owner, cs.Ordinal, cs.PickDegree, cs.ClosedByCut = f.id, f.ordinal, 1, byCut
	f.ordinal++
	f.lastRef = f.refVal
	f.phase = dcSeekRef
	f.cur = nil
	return cs
}

// Cut implements Filter: it force-closes the open candidate set (§3.3). A
// set with a reference is closed and returned; a tentative-only buffer is
// dismissed, because no output is owed until a reference arrives and
// keeping tentative admissions open would prevent the current region from
// closing.
func (f *DC) Cut() (*CandidateSet, []*tuple.Tuple) {
	if !f.started {
		return nil, nil
	}
	if f.phase == dcInRef {
		return f.closeSet(true), nil
	}
	dismissed := f.tentative
	f.tentative, f.tentVals = f.tentative[:0], f.tentVals[:0]
	return nil, dismissed
}

// Reset implements Filter.
func (f *DC) Reset() {
	f.sig.Reset()
	f.scale = 1
	f.started = false
	f.phase = dcSeekRef
	f.lastRef = 0
	f.ordinal = 0
	f.cur = nil
	f.sets = setPool{}
	f.tentative, f.tentVals = nil, nil
}

// SelfInterested implements Filter.
func (f *DC) SelfInterested() SIFilter {
	// Each SI filter needs its own signal state; rebuild from the spec.
	sig := f.freshSignal()
	return &siDC{id: f.id, sig: sig, delta: f.delta}
}

// freshSignal builds an unbound copy of the filter's signal.
func (f *DC) freshSignal() Signal {
	switch s := f.sig.(type) {
	case *attrSignal:
		return NewAttrSignal(s.attr)
	case *trendSignal:
		return NewTrendSignal(s.attr, s.unit)
	case *avgSignal:
		sig, err := NewAvgSignal(s.attrs...)
		if err != nil {
			// The original was validated at construction.
			panic(err)
		}
		return sig
	default:
		// Caller-supplied signals are reset and shared; acceptable
		// because GA and SI runs never interleave on one filter.
		f.sig.Reset()
		return f.sig
	}
}

// siDC is the self-interested delta-compression baseline: it selects the
// first tuple and then every first tuple at least delta away from the last
// selection, with no slack exploitation.
type siDC struct {
	id      string
	sig     Signal
	delta   float64
	started bool
	lastRef float64
}

var _ SIFilter = (*siDC)(nil)

func (f *siDC) ID() string { return f.id }

func (f *siDC) Process(t *tuple.Tuple) []*tuple.Tuple {
	v, err := f.sig.Value(t)
	if err != nil {
		// SI filters run on the same stream already validated by the
		// group-aware pass; a binding failure here is a programmer
		// error.
		panic(err)
	}
	if !f.started {
		f.started = true
		f.lastRef = v
		return []*tuple.Tuple{t}
	}
	if math.Abs(v-f.lastRef) >= f.delta {
		f.lastRef = v
		return []*tuple.Tuple{t}
	}
	return nil
}

func (f *siDC) Flush() []*tuple.Tuple { return nil }
