package hitting

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gasf/internal/filter"
	"gasf/internal/tuple"
)

// refSolver is the greedy the current Solver replaced, kept as the
// reference of the differential test: it indexes entries through a map,
// sorts them by sequence number, and recomputes every entry's utility from
// its set list on every pick.
type refSolver struct {
	need    []int
	entries []refEntry
	byseq   map[int]int
	picks   []Pick
}

// refEntry tracks one distinct tuple across a region's candidate sets.
type refEntry struct {
	t      *tuple.Tuple
	sets   []int
	chosen bool
}

// build normalizes the candidate sets into the solver's scratch state,
// validating that each set's quota is satisfiable. Entries end up sorted
// by sequence number for determinism.
func (s *refSolver) build(sets []*filter.CandidateSet) error {
	if s.byseq == nil {
		s.byseq = make(map[int]int)
	} else {
		clear(s.byseq)
	}
	s.need = s.need[:0]
	s.entries = s.entries[:0]
	for i, cs := range sets {
		if len(cs.Members) == 0 {
			return fmt.Errorf("hitting: set %s-%d is empty", cs.Owner, cs.Ordinal)
		}
		el := cs.Eligible()
		k := cs.PickDegree
		if k <= 0 {
			k = 1
		}
		if k > len(el) {
			k = len(el)
		}
		s.need = append(s.need, k)
		for _, m := range el {
			idx, ok := s.byseq[m.Seq]
			if !ok {
				idx = len(s.entries)
				if idx < cap(s.entries) {
					s.entries = s.entries[:idx+1]
					e := &s.entries[idx]
					e.t, e.sets, e.chosen = m, e.sets[:0], false
				} else {
					s.entries = append(s.entries, refEntry{t: m})
				}
				s.byseq[m.Seq] = idx
			}
			s.entries[idx].sets = append(s.entries[idx].sets, i)
		}
	}
	// Deterministic entry order: by sequence number (unique per region).
	slices.SortFunc(s.entries, func(a, b refEntry) int { return cmp.Compare(a.t.Seq, b.t.Seq) })
	return nil
}

// utility of an entry: the number of unsatisfied sets it is eligible in
// and not yet chosen for.
func (s *refSolver) utility(e *refEntry) int {
	if e.chosen {
		return 0
	}
	u := 0
	for _, si := range e.sets {
		if s.need[si] > 0 {
			u++
		}
	}
	return u
}

// Greedy solves one instance with the paper's rule: the highest utility
// wins, ties go to the freshest tuple (the earliest with preferEarliest).
func (s *refSolver) Greedy(sets []*filter.CandidateSet, preferEarliest bool) ([]Pick, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	if err := s.build(sets); err != nil {
		return nil, err
	}
	remaining := 0
	for _, n := range s.need {
		remaining += n
	}
	fresher := func(a, b *refEntry) bool {
		if preferEarliest {
			return a.t.TS.Before(b.t.TS) || (a.t.TS.Equal(b.t.TS) && a.t.Seq < b.t.Seq)
		}
		return a.t.TS.After(b.t.TS) || (a.t.TS.Equal(b.t.TS) && a.t.Seq > b.t.Seq)
	}
	picks := s.picks[:0]
	for remaining > 0 {
		var best *refEntry
		bestU := 0
		for i := range s.entries {
			e := &s.entries[i]
			u := s.utility(e)
			if u == 0 {
				continue
			}
			if best == nil || u > bestU || (u == bestU && fresher(e, best)) {
				best, bestU = e, u
			}
		}
		if best == nil {
			return nil, fmt.Errorf("hitting: no pickable tuple with %d picks outstanding", remaining)
		}
		best.chosen = true
		i := len(picks)
		if i < cap(picks) {
			picks = picks[:i+1]
			picks[i].Tuple, picks[i].Sets = best.t, picks[i].Sets[:0]
		} else {
			picks = append(picks, Pick{Tuple: best.t})
		}
		for _, si := range best.sets {
			if s.need[si] > 0 {
				s.need[si]--
				remaining--
				picks[i].Sets = append(picks[i].Sets, sets[si])
			}
		}
	}
	s.picks = picks
	return picks, nil
}

// diffInstance draws a random hitting-set instance for the differential
// test: overlapping sets over a small pool (so utility ties are common),
// multi-degree quotas, Top/Bottom restrictions, and four numberings —
// timestamps rising with seq (the dense, sort-free path), repeated
// timestamps (ties broken by seq), timestamps out of seq order, and
// sequence numbers too far apart for the dense index.
func diffInstance(rng *rand.Rand) []*filter.CandidateSet {
	pool := 1 + rng.Intn(24)
	mode := rng.Intn(4)
	tuples := make([]*tuple.Tuple, pool)
	for i := range tuples {
		seq, ts := 1000+i, int64(i)
		switch mode {
		case 1:
			ts = int64(i / 3)
		case 2:
			ts = rng.Int63n(int64(pool))
		case 3:
			seq = i * 100003
		}
		tuples[i] = tuple.MustNew(schema, seq, time.Unix(0, ts*int64(time.Millisecond)), []float64{float64(rng.Intn(5))})
	}
	sets := make([]*filter.CandidateSet, 1+rng.Intn(12))
	for i := range sets {
		cs := &filter.CandidateSet{Owner: string(rune('A' + rng.Intn(6))), Ordinal: i, PickDegree: 1}
		for _, k := range rng.Perm(pool)[:1+rng.Intn(min(pool, 8))] {
			m := tuples[k]
			if rng.Intn(8) == 0 {
				// Another object with the same seq: the first seen
				// stands for it.
				m = tuple.MustNew(schema, m.Seq, m.TS, m.Values)
			}
			cs.Members = append(cs.Members, m)
		}
		if rng.Intn(3) == 0 {
			cs.PickDegree = 1 + rng.Intn(3)
		}
		if rng.Intn(4) == 0 {
			cs.Restrict = filter.Prescription(1 + rng.Intn(2))
		}
		sets[i] = cs
	}
	return sets
}

// TestSolverMatchesReference holds the Solver to the greedy it replaced
// on seeded random instances, in both tie modes and with both solvers
// reused across instances: the same picks in the same order, each pick
// the same tuple object credited to the same sets in the same order.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var got Solver
	var want refSolver
	for trial := range 4000 {
		sets := diffInstance(rng)
		earliest := trial%2 == 1
		wp, werr := want.Greedy(sets, earliest)
		gp, gerr := got.Greedy(sets, earliest)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		if len(gp) != len(wp) {
			t.Fatalf("trial %d (earliest %v): picks %v, reference %v", trial, earliest, pickSeqs(gp), pickSeqs(wp))
		}
		for i := range wp {
			if gp[i].Tuple != wp[i].Tuple || !slices.Equal(gp[i].Sets, wp[i].Sets) {
				t.Fatalf("trial %d (earliest %v): pick %d is %v, reference %v (picks %v, reference %v)",
					trial, earliest, i, gp[i], wp[i], pickSeqs(gp), pickSeqs(wp))
			}
		}
	}
}

// oneTupleInstance draws an instance whose sets have one distinct eligible
// tuple between them, the shape Greedy solves without its utility loop:
// quotas above one on a set that can give only the tuple, Top and Bottom
// restrictions that leave the set's other members ineligible, decided
// proxies (a set decided before its region closed, standing in with its
// pick), and a second object under the tuple's seq.
func oneTupleInstance(rng *rand.Rand) []*filter.CandidateSet {
	seq := 1000 + rng.Intn(16)
	at := func(seq int, v float64) *tuple.Tuple {
		return tuple.MustNew(schema, seq, time.Unix(0, int64(seq)*int64(time.Millisecond)), []float64{v})
	}
	only := at(seq, 2)
	sets := make([]*filter.CandidateSet, 1+rng.Intn(8))
	for i := range sets {
		cs := &filter.CandidateSet{Owner: string(rune('A' + rng.Intn(6))), Ordinal: i, PickDegree: 1}
		switch rng.Intn(5) {
		case 0:
			cs.Members, cs.PickDegree = []*tuple.Tuple{only}, 1+rng.Intn(3)
		case 1:
			cs.Members, cs.PickDegree = []*tuple.Tuple{only, at(seq, 2)}, 1+rng.Intn(2)
		case 2:
			cs.Members, cs.Restrict = []*tuple.Tuple{at(seq-2, 1), only, at(seq+3, 1)}, filter.Top
		case 3:
			cs.Members, cs.Restrict = []*tuple.Tuple{at(seq-1, 3), at(seq+1, 4), only}, filter.Bottom
		case 4:
			cs.Members, cs.Decided = []*tuple.Tuple{only}, true
		}
		sets[i] = cs
	}
	return sets
}

// TestSolverOneTupleMatchesReference holds Greedy's one-tuple shortcut to
// the reference greedy: the same single pick, credited to the same sets in
// the same order, InOrder listing it, and the incidences counted. The
// solver alternates with general instances, so the shortcut leaves no
// state behind that the next instance would read.
func TestSolverOneTupleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var got Solver
	var want refSolver
	for trial := range 4000 {
		sets, one := diffInstance(rng), trial%2 == 0
		if one {
			sets = oneTupleInstance(rng)
		}
		earliest := trial%4 < 2
		wp, werr := want.Greedy(sets, earliest)
		gp, gerr := got.Greedy(sets, earliest)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		if len(gp) != len(wp) {
			t.Fatalf("trial %d: picks %v, reference %v", trial, pickSeqs(gp), pickSeqs(wp))
		}
		for i := range wp {
			if gp[i].Tuple != wp[i].Tuple || !slices.Equal(gp[i].Sets, wp[i].Sets) {
				t.Fatalf("trial %d: pick %d is %v, reference %v", trial, i, gp[i], wp[i])
			}
		}
		if !one {
			continue
		}
		if gerr != nil || len(got.ents) != 1 || len(gp) != 1 {
			t.Fatalf("trial %d: one-tuple instance: %d entries, picks %v, error %v", trial, len(got.ents), pickSeqs(gp), gerr)
		}
		if in := got.InOrder(); len(in) != 1 || in[0].Tuple != gp[0].Tuple {
			t.Fatalf("trial %d: InOrder %v", trial, pickSeqs(in))
		}
		incidences := 0
		for _, cs := range sets {
			incidences += len(cs.Eligible())
		}
		if got.Incidences() != incidences {
			t.Fatalf("trial %d: %d incidences counted, %d eligible members", trial, got.Incidences(), incidences)
		}
	}
}
