package core

import (
	"math/bits"
	"slices"

	"gasf/internal/filter"
)

// Destination lists. A transmission names the applications it goes to as
// a sorted list of filter IDs. The lists repeat — a group of n filters
// uses a handful of its 2^n owner sets, a pass-all group just one — so
// the engine keeps one canonical list per owner set in use, keyed by the
// set's bitset over the filters' slots, and every transmission carrying
// that set shares it. A list is immutable from the moment it is built:
// the session layer keeps the last list it routed and compares the next
// one against it, so a list is never reused as scratch, and nobody
// downstream may write to Transmission.Destinations. Slots move when the
// membership changes, so AddFilter and RemoveFilter empty the table; the
// lists already handed out stay valid.

// maxDestLists bounds the table. Past it — and for a group of more than
// 64 filters, or a label of a filter that has left and is still owed
// outputs — a transmission gets a list of its own.
const maxDestLists = 256

// ownerBit returns the slot bit of a current group member, 0 for any other
// label.
func (e *Engine) ownerBit(id string) uint64 {
	if i, ok := e.slot[id]; ok && i < 64 {
		return 1 << i
	}
	return 0
}

// destList returns the canonical destination list of a non-empty owner
// set, or nil when the table is full.
func (e *Engine) destList(owners uint64) []string {
	if l, ok := e.destLists[owners]; ok {
		return l
	}
	if len(e.destLists) >= maxDestLists {
		return nil
	}
	l := make([]string, 0, bits.OnesCount64(owners))
	for m := owners; m != 0; m &= m - 1 {
		l = append(l, e.filters[bits.TrailingZeros64(m)].ID())
	}
	slices.Sort(l)
	if e.destLists == nil {
		e.destLists = make(map[uint64][]string)
	}
	e.destLists[owners] = l
	return l
}

// pickDests returns the sorted destination list of a greedy pick: the
// owners of the undecided sets it was credited to, each once. It is nil
// when the pick serves decided sets only.
func (e *Engine) pickDests(sets []*filter.CandidateSet) []string {
	var owners uint64
	n, members := 0, true
	for _, cs := range sets {
		if !cs.Decided {
			b := e.ownerBit(cs.Owner)
			members = members && b != 0
			owners |= b
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if members {
		if l := e.destList(owners); l != nil {
			return l
		}
	}
	dests := make([]string, 0, n)
	for _, cs := range sets {
		if !cs.Decided && !slices.Contains(dests, cs.Owner) {
			dests = append(dests, cs.Owner)
		}
	}
	slices.Sort(dests)
	return dests
}

// mergedDests returns the destination list of one transmission from the
// outputs that share its tuple. When every label is a
// current member named once, that is the canonical list of their union.
// Otherwise the transmission gets a list of its own, repeats included: a
// filter that decided two sets on one tuple in the same release is
// delivered it twice.
func (e *Engine) mergedDests(run []pendingOut) []string {
	var (
		owners uint64
		one    [1]string
	)
	n, exact := 0, true
	for i := range run {
		for _, d := range run[i].labels(&one) {
			b := e.ownerBit(d)
			exact = exact && b != 0 && owners&b == 0
			owners |= b
			n++
		}
	}
	if exact {
		if l := e.destList(owners); l != nil {
			return l
		}
	}
	dests := make([]string, 0, n)
	for i := range run {
		dests = append(dests, run[i].labels(&one)...)
	}
	slices.Sort(dests)
	return dests
}
