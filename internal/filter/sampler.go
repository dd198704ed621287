package filter

import (
	"fmt"
	"math"
	"time"

	"gasf/internal/tuple"
)

// SS is a stratified-sampling group-aware filter (Table 5.1): it segments
// the stream into fixed time intervals, classifies each segment by the
// sample range (max-min) of the monitored attribute, and owes the
// application a fraction of the segment's tuples — a high rate for dynamic
// segments, a low rate for quiet ones. Every tuple of a segment is a
// candidate, so the candidate set has multi-degree candidacy (§5.3) and the
// output decider may satisfy several filters with shared picks.
type SS struct {
	id           string
	attr         string
	interval     time.Duration
	threshold    float64
	highPct      float64
	lowPct       float64
	prescription Prescription

	idx     int
	bound   bool
	ordinal int

	segStartSet bool
	segStart    time.Time
	minV, maxV  float64
	// cur is the open segment, taken from the free list at its first
	// tuple and handed off whole at closure.
	cur  *CandidateSet
	sets setPool
}

var _ Filter = (*SS)(nil)

// NewSS builds a stratified-sampling filter:
// SS(attr, timeInterval, threshold, highSmplRt, lowSmplRt). The sample
// rates are percentages of tuples per segment.
func NewSS(id, attr string, interval time.Duration, threshold, highPct, lowPct float64, p Prescription) (*SS, error) {
	if id == "" {
		return nil, fmt.Errorf("filter: empty filter id")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("filter %s: interval must be positive, got %v", id, interval)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("filter %s: threshold must be non-negative, got %g", id, threshold)
	}
	for _, pct := range []float64{highPct, lowPct} {
		if pct <= 0 || pct > 100 {
			return nil, fmt.Errorf("filter %s: sample rate %g%% outside (0, 100]", id, pct)
		}
	}
	if highPct < lowPct {
		return nil, fmt.Errorf("filter %s: high rate %g%% below low rate %g%%", id, highPct, lowPct)
	}
	return &SS{
		id: id, attr: attr, interval: interval,
		threshold: threshold, highPct: highPct, lowPct: lowPct,
		prescription: p,
	}, nil
}

// ID implements Filter.
func (f *SS) ID() string { return f.id }

// Spec implements Filter.
func (f *SS) Spec() string {
	return fmt.Sprintf("SS(%s, %v, %g, %g, %g)", f.attr, f.interval, f.threshold, f.highPct, f.lowPct)
}

// Stateful implements Filter: segment boundaries depend only on time.
func (f *SS) Stateful() bool { return false }

// ObserveChosen implements Filter; sampling sets do not rebase.
func (f *SS) ObserveChosen([]*tuple.Tuple) Event { return Event{} }

// Process implements Filter.
func (f *SS) Process(t *tuple.Tuple) (Event, error) {
	if !f.bound {
		i, err := t.Schema().Index(f.attr)
		if err != nil {
			return Event{}, fmt.Errorf("filter %s: %w", f.id, err)
		}
		f.idx, f.bound = i, true
	}
	v := t.ValueAt(f.idx)
	var closed *CandidateSet
	if f.segStartSet && !t.TS.Before(f.segStart.Add(f.interval)) {
		closed = f.closeSegment(false)
	}
	if !f.segStartSet {
		f.segStart = t.TS
		f.segStartSet = true
		f.minV, f.maxV = v, v
		f.cur = f.sets.take(0)
	}
	f.cur.Members = append(f.cur.Members, t)
	f.minV = math.Min(f.minV, v)
	f.maxV = math.Max(f.maxV, v)
	return Event{Admitted: true, Closed: closed}, nil
}

// closeSegment finalizes the current segment into a multi-degree candidate
// set.
func (f *SS) closeSegment(byCut bool) *CandidateSet {
	rate := f.lowPct
	if f.maxV-f.minV >= f.threshold {
		rate = f.highPct
	}
	cs := f.cur
	n := len(cs.Members)
	k := int(math.Round(float64(n) * rate / 100))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	cs.Owner, cs.Ordinal, cs.PickDegree, cs.ClosedByCut = f.id, f.ordinal, k, byCut
	cs.Restrict, cs.RestrictAttr = f.prescription, f.idx
	f.ordinal++
	f.cur = nil
	f.segStartSet = false
	return cs
}

// Cut implements Filter: it closes the current partial segment.
func (f *SS) Cut() (*CandidateSet, []*tuple.Tuple) {
	if f.cur == nil {
		return nil, nil
	}
	return f.closeSegment(true), nil
}

// Reset implements Filter.
func (f *SS) Reset() {
	f.bound, f.segStartSet = false, false
	f.ordinal = 0
	f.cur = nil
	f.sets = setPool{}
}

// SelfInterested implements Filter: the baseline samples each segment on
// its own, picking evenly spaced tuples (a deterministic stand-in for the
// random sampling of §5.1; the pick count matches the group-aware
// PickDegree exactly, so any bandwidth difference comes purely from
// overlap).
func (f *SS) SelfInterested() SIFilter {
	cp := *f
	cp.Reset()
	return &siSS{ss: &cp}
}

// siSS is the self-interested stratified-sampling baseline.
type siSS struct {
	ss *SS
}

var _ SIFilter = (*siSS)(nil)

func (f *siSS) ID() string { return f.ss.id }

func (f *siSS) Process(t *tuple.Tuple) []*tuple.Tuple {
	ev, err := f.ss.Process(t)
	if err != nil {
		panic(err)
	}
	if ev.Closed == nil {
		return nil
	}
	return evenPicks(ev.Closed)
}

func (f *siSS) Flush() []*tuple.Tuple {
	cs, _ := f.ss.Cut()
	if cs == nil {
		return nil
	}
	return evenPicks(cs)
}

// evenPicks selects PickDegree evenly spaced tuples from the set's eligible
// members.
func evenPicks(cs *CandidateSet) []*tuple.Tuple {
	el := cs.Eligible()
	k := cs.PickDegree
	if k >= len(el) {
		out := make([]*tuple.Tuple, len(el))
		copy(out, el)
		return out
	}
	out := make([]*tuple.Tuple, 0, k)
	for i := 0; i < k; i++ {
		// Spread picks across the segment.
		j := (i*len(el) + len(el)/2) / k
		if j >= len(el) {
			j = len(el) - 1
		}
		out = append(out, el[j])
	}
	return out
}
