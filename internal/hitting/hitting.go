// Package hitting implements the minimum hitting-set solvers at the core of
// group-aware stream filtering.
//
// Theorem 1 of the paper reduces group-aware filtering to minimum hitting
// set: given the candidate sets of a region, pick one tuple from each set so
// that the union of picks is smallest. The greedy algorithm (Fig 2.7)
// achieves the classical H(max |C|) approximation ratio. Chapter 5 extends
// the problem to multi-degree candidacy (Definition 6): each set i requires
// pickDegree_i distinct tuples; the greedy generalizes by crediting a chosen
// tuple to every unsatisfied set that contains it and only retiring a set
// once its quota is met.
//
// An exact branch-and-bound solver is provided for tests and ablations; it
// verifies the approximation ratio and the region-optimality theorem
// (Theorem 2) on small instances.
package hitting

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gasf/internal/filter"
	"gasf/internal/tuple"
)

// Pick is one chosen output tuple together with the candidate sets it was
// credited to. The multicast layer derives the tuple's destination list
// from the owners of those sets.
type Pick struct {
	Tuple *tuple.Tuple
	// Sets lists the candidate sets satisfied (in part, for multi-degree
	// sets) by this pick.
	Sets []*filter.CandidateSet
}

// Owners returns the deduplicated owner IDs of the credited sets, in
// first-seen order.
func (p Pick) Owners() []string {
	seen := make(map[string]bool, len(p.Sets))
	var out []string
	for _, cs := range p.Sets {
		if !seen[cs.Owner] {
			seen[cs.Owner] = true
			out = append(out, cs.Owner)
		}
	}
	return out
}

// Greedy solves the (multi-degree) hitting-set instance with the paper's
// greedy heuristic: repeatedly pick the tuple with the highest group
// utility, breaking ties by the latest timestamp to favor temporal
// freshness (Fig 2.7), credit it to every unsatisfied set containing it,
// and retire sets whose quota is met. Picks are returned in choice order.
func Greedy(sets []*filter.CandidateSet) ([]Pick, error) {
	return GreedyWithOptions(sets, false)
}

// GreedyWithOptions is Greedy with a configurable tie-break: when
// preferEarliest is set, utility ties go to the earliest tuple instead of
// the latest (the ablation variant of the paper's freshness rule).
func GreedyWithOptions(sets []*filter.CandidateSet, preferEarliest bool) ([]Pick, error) {
	var s Solver
	return s.Greedy(sets, preferEarliest)
}

// Solver runs the greedy heuristic with reusable internal state, so a
// caller deciding a stream of regions (the engine's hot path) allocates
// nothing per decision beyond amortized growth. The zero value is ready to
// use; a Solver is not safe for concurrent use.
//
// An instance is held as flat incidence lists (CSR: one array plus
// offsets per direction). The distinct eligible tuples are the entries;
// each (set, entry) pair is an incidence, listed set by set in inc and
// incEnt and entry by entry in entSet. Greedy keeps every entry's
// utility current instead of recomputing it per pick: a histogram of the
// utilities gives the maximum, and a set whose quota is met lowers the
// utility of each of its entries once.
type Solver struct {
	need   []int32        // remaining picks per set
	inc    []*tuple.Tuple // eligible members, set i's at inc[setOff[i]:setOff[i+1]]
	setOff []int32
	incEnt []int32        // the entry of each incidence in inc
	ents   []*tuple.Tuple // entry -> its tuple (the first seen with its seq)
	entOff []int32        // entry j's sets are entSet[entOff[j]:entOff[j+1]]
	entSet []int32
	// u is the current utility per entry; a chosen entry holds -(k+1),
	// k being its pick's index.
	u     []int32
	hist  []int32 // hist[k]: entries of utility k
	ord   []int32 // entries by (TS, Seq): the tie-break order
	idx   tuple.SeqIndex
	picks []Pick
	// byTime backs InOrder.
	byTime []Pick
	// credits backs every pick's Sets, one run per pick.
	credits []*filter.CandidateSet
}

// build normalizes the candidate sets into the solver's scratch state,
// validating that each set's quota is satisfiable.
func (s *Solver) build(sets []*filter.CandidateSet) error {
	// Size the scratch once for the instance, so that a fresh Solver
	// allocates a fixed number of arrays however large its first
	// instance is.
	members := 0
	for _, cs := range sets {
		members += len(cs.Members)
	}
	s.need, s.setOff = slices.Grow(s.need[:0], len(sets)), slices.Grow(s.setOff[:0], len(sets)+1)
	s.inc, s.incEnt = slices.Grow(s.inc[:0], members), slices.Grow(s.incEnt[:0], members)
	s.ents, s.ord = slices.Grow(s.ents[:0], members), slices.Grow(s.ord[:0], members)
	s.setOff = append(s.setOff, 0)
	lo, hi := math.MaxInt, math.MinInt
	for _, cs := range sets {
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
		s.need = append(s.need, int32(k))
		for _, m := range el {
			lo, hi = min(lo, m.Seq), max(hi, m.Seq)
			s.inc = append(s.inc, m)
		}
		s.setOff = append(s.setOff, int32(len(s.inc)))
	}
	if lo == hi {
		// One distinct tuple, as in every region of a pass-all group: one
		// entry in every set, nothing to index or order.
		s.ents, s.ord, s.u = append(s.ents, s.inc[0]), append(s.ord, 0), append(s.u[:0], 0)
		s.entOff = append(s.entOff[:0], 0, int32(len(s.inc)))
		s.entSet = slices.Grow(s.entSet[:0], len(s.inc))
		for i := range sets {
			for range s.setOff[i+1] - s.setOff[i] {
				s.incEnt = append(s.incEnt, 0)
				s.entSet = append(s.entSet, int32(i))
			}
		}
		return nil
	}
	// Entries are numbered in first-seen order; the index maps a seq to
	// its entry number plus one.
	s.idx.Reset(lo, hi, len(s.inc))
	for _, m := range s.inc {
		j := s.idx.Get(m.Seq) - 1
		if j < 0 {
			j = int32(len(s.ents))
			s.ents = append(s.ents, m)
			s.idx.Set(m.Seq, j+1)
		}
		s.incEnt = append(s.incEnt, j)
	}
	// The entry -> sets lists, by counting: each entry's sets in set
	// order, u serving as the fill cursor.
	n := len(s.ents)
	s.entOff = resize(s.entOff, n+1)
	for _, j := range s.incEnt {
		s.entOff[j+1]++
	}
	for j := range n {
		s.entOff[j+1] += s.entOff[j]
	}
	s.entSet = resize(s.entSet, len(s.inc))
	s.u = append(s.u[:0], s.entOff[:n]...)
	for i := range sets {
		for _, j := range s.incEnt[s.setOff[i]:s.setOff[i+1]] {
			s.entSet[s.u[j]] = int32(i)
			s.u[j]++
		}
	}
	// The tie-break order. A dense index lists the entries by seq, which
	// is (TS, Seq) order whenever timestamps rise with sequence numbers,
	// as they do within a source; anything else is sorted.
	s.ord = s.idx.AppendValues(s.ord)
	for k := range s.ord {
		s.ord[k]--
	}
	byFresh := func(a, b int32) int {
		ta, tb := s.ents[a], s.ents[b]
		return cmp.Or(ta.TS.Compare(tb.TS), cmp.Compare(ta.Seq, tb.Seq))
	}
	if !slices.IsSortedFunc(s.ord, byFresh) {
		slices.SortFunc(s.ord, byFresh)
	}
	return nil
}

// resize returns buf with length n, zeroed, reusing its array when it can.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Greedy solves one instance. The returned picks (and their Sets lists)
// are backed by solver scratch and stay valid only until the next call.
//
// Every pick takes the highest current utility; among entries at that
// utility the freshest wins, the earliest with preferEarliest. Scanning
// the (TS, Seq) order from the preferred end and stopping at the first
// entry at the maximum makes exactly that choice.
func (s *Solver) Greedy(sets []*filter.CandidateSet, preferEarliest bool) ([]Pick, error) {
	s.picks = s.picks[:0]
	if len(sets) == 0 {
		return nil, nil
	}
	if err := s.build(sets); err != nil {
		return nil, err
	}
	remaining := 0
	for _, n := range s.need {
		remaining += int(n)
	}
	if len(s.ents) == 1 {
		return s.only(sets, remaining)
	}
	// Every set starts unsatisfied, so an entry's utility starts at its
	// incidence count.
	maxU := int32(0)
	for j := range s.ents {
		s.u[j] = s.entOff[j+1] - s.entOff[j]
		maxU = max(maxU, s.u[j])
	}
	s.hist = resize(s.hist, int(maxU)+1)
	for _, u := range s.u {
		s.hist[u]++
	}
	picks := slices.Grow(s.picks[:0], min(remaining, len(s.ents)))
	credits := slices.Grow(s.credits[:0], remaining)
	for remaining > 0 {
		for maxU > 0 && s.hist[maxU] == 0 {
			maxU--
		}
		if maxU == 0 {
			// Unreachable: every unsatisfied set has an unchosen
			// eligible tuple because need <= |eligible|.
			return nil, fmt.Errorf("hitting: no pickable tuple with %d picks outstanding", remaining)
		}
		best := s.first(maxU, preferEarliest)
		s.hist[maxU]--
		s.u[best] = -int32(len(picks)) - 1
		from := len(credits)
		for _, si := range s.entSet[s.entOff[best]:s.entOff[best+1]] {
			if s.need[si] == 0 {
				continue
			}
			s.need[si]--
			remaining--
			credits = append(credits, sets[si])
			if s.need[si] == 0 {
				// The set no longer counts toward its entries' utility.
				for _, j := range s.incEnt[s.setOff[si]:s.setOff[si+1]] {
					if u := s.u[j]; u > 0 {
						s.hist[u]--
						s.hist[u-1]++
						s.u[j] = u - 1
					}
				}
			}
		}
		picks = append(picks, Pick{Tuple: s.ents[best], Sets: credits[from:len(credits):len(credits)]})
	}
	s.picks, s.credits = picks, credits
	return picks, nil
}

// Incidences returns the number of (set, eligible member) pairs of the
// last instance Greedy solved: the work it did, counted.
func (s *Solver) Incidences() int { return len(s.inc) }

// InOrder returns the picks of the last Greedy call in (TS, Seq) order,
// the order their tuples arrived in, by one pass over the tie-break order
// instead of a sort. Like the picks it is solver scratch, valid until the
// next call.
func (s *Solver) InOrder() []Pick {
	if len(s.picks) < 2 {
		return s.picks
	}
	out := s.byTime[:0]
	for _, j := range s.ord {
		if k := s.u[j]; k < 0 {
			out = append(out, s.picks[-k-1])
			if len(out) == len(s.picks) {
				break
			}
		}
	}
	s.byTime = out
	return out
}

// only solves an instance of one distinct tuple, as every region of a
// pass-all group is: the tuple is the one pick, credited to every set
// still short of its quota once per incidence, the order Greedy credits
// in.
func (s *Solver) only(sets []*filter.CandidateSet, remaining int) ([]Pick, error) {
	credits := slices.Grow(s.credits[:0], remaining)
	for i, cs := range sets {
		for range s.setOff[i+1] - s.setOff[i] {
			if s.need[i] > 0 {
				s.need[i]--
				remaining--
				credits = append(credits, cs)
			}
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("hitting: no pickable tuple with %d picks outstanding", remaining)
	}
	s.u[0] = -1
	s.picks = append(s.picks[:0], Pick{Tuple: s.ents[0], Sets: credits[:len(credits):len(credits)]})
	s.credits = credits
	return s.picks, nil
}

// first returns the first entry at utility u in tie-break order: from the
// fresh end, or from the early end with preferEarliest. The histogram
// says one exists.
func (s *Solver) first(u int32, preferEarliest bool) int32 {
	if preferEarliest {
		for _, j := range s.ord {
			if s.u[j] == u {
				return j
			}
		}
	} else {
		for k := len(s.ord) - 1; k >= 0; k-- {
			if j := s.ord[k]; s.u[j] == u {
				return j
			}
		}
	}
	panic(fmt.Sprintf("hitting: utility histogram counts an entry at %d, none found", u))
}

// Exact solves the instance optimally by branch and bound; intended for
// tests and ablation benches on small regions (it is exponential in the
// worst case). It minimizes the number of distinct chosen tuples.
func Exact(sets []*filter.CandidateSet) ([]Pick, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	var s Solver
	if err := s.build(sets); err != nil {
		return nil, err
	}
	quota := slices.Clone(s.need)
	chosen := make([]bool, len(s.ents))
	best := len(s.ents) + 1
	var bestChoice, current []int32

	var rec func()
	rec = func() {
		if len(current) >= best {
			return // prune
		}
		// Find the unsatisfied set with the fewest remaining options.
		target, options := -1, 0
		for si := range sets {
			if s.need[si] == 0 {
				continue
			}
			avail := 0
			for _, j := range s.incEnt[s.setOff[si]:s.setOff[si+1]] {
				if !chosen[j] {
					avail++
				}
			}
			if avail < int(s.need[si]) {
				return // infeasible branch
			}
			if target == -1 || avail < options {
				target, options = si, avail
			}
		}
		if target == -1 {
			// All satisfied: record the solution.
			if len(current) < best {
				best = len(current)
				bestChoice = slices.Clone(current)
			}
			return
		}
		for _, j := range s.incEnt[s.setOff[target]:s.setOff[target+1]] {
			if chosen[j] {
				continue
			}
			chosen[j] = true
			var credited []int32
			for _, si := range s.entSet[s.entOff[j]:s.entOff[j+1]] {
				if s.need[si] > 0 {
					s.need[si]--
					credited = append(credited, si)
				}
			}
			current = append(current, j)
			rec()
			current = current[:len(current)-1]
			for _, si := range credited {
				s.need[si]++
			}
			chosen[j] = false
		}
	}
	rec()
	if bestChoice == nil {
		return nil, fmt.Errorf("hitting: no feasible solution")
	}
	// Rebuild per-set credits for the optimal choice, deterministically
	// by choice order.
	copy(s.need, quota)
	var picks []Pick
	for _, j := range bestChoice {
		pick := Pick{Tuple: s.ents[j]}
		for _, si := range s.entSet[s.entOff[j]:s.entOff[j+1]] {
			if s.need[si] > 0 {
				s.need[si]--
				pick.Sets = append(pick.Sets, sets[si])
			}
		}
		picks = append(picks, pick)
	}
	return picks, nil
}

// Hits reports whether the picks satisfy every set's quota with eligible,
// distinct tuples — the validity predicate used by tests and by the
// engine's self-checks.
func Hits(sets []*filter.CandidateSet, picks []Pick) bool {
	credit := make(map[*filter.CandidateSet]int)
	seen := make(map[int]bool)
	for _, pk := range picks {
		if seen[pk.Tuple.Seq] {
			return false // duplicate pick
		}
		seen[pk.Tuple.Seq] = true
		for _, cs := range pk.Sets {
			eligible := false
			for _, m := range cs.Eligible() {
				if m.Seq == pk.Tuple.Seq {
					eligible = true
					break
				}
			}
			if !eligible {
				return false
			}
			credit[cs]++
		}
	}
	for _, cs := range sets {
		k := cs.PickDegree
		if k <= 0 {
			k = 1
		}
		if el := len(cs.Eligible()); k > el {
			k = el
		}
		if credit[cs] < k {
			return false
		}
	}
	return true
}
