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
//
// The bitset of an output is found without hashing a label: a closed set
// carries its owner's slot, so its bit is a shift, and a staged output
// carries the bitset of its labels (pendingOut.owners) to the release
// that merges and counts it. Only a label that cannot be checked that
// way — a set closed before a membership change, an output staged before
// one — is looked up by name.

// maxDestLists bounds the table. Past it — and for a group of more than
// 64 filters, or a label of a filter that has left and is still owed
// outputs — a transmission gets a list of its own.
const maxDestLists = 256

// ownerBit returns the slot bit of a set's owner, 0 when the owner is not
// a current member of the first 64 slots. The slot stamped on the set is
// used while it still holds the owner; otherwise the owner is looked up.
func (e *Engine) ownerBit(cs *filter.CandidateSet) uint64 {
	if i := cs.Slot; i < 64 && i < len(e.ids) && e.ids[i] == cs.Owner {
		return 1 << i
	}
	return e.labelBit(cs.Owner)
}

// labelBit returns the slot bit of a current group member, 0 for any other
// label.
func (e *Engine) labelBit(id string) uint64 {
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
// owners of the undecided sets it was credited to, each once, and their
// slot bitset, 0 when one of them is not a current member. The list is
// nil when the pick serves decided sets only.
func (e *Engine) pickDests(sets []*filter.CandidateSet) ([]string, uint64) {
	var owners uint64
	n, members := 0, true
	for _, cs := range sets {
		if !cs.Decided {
			b := e.ownerBit(cs)
			members = members && b != 0
			owners |= b
			n++
		}
	}
	if n == 0 {
		return nil, 0
	}
	if !members {
		owners = 0
	} else if l := e.destList(owners); l != nil {
		return l, owners
	}
	dests := make([]string, 0, n)
	for _, cs := range sets {
		if !cs.Decided && !slices.Contains(dests, cs.Owner) {
			dests = append(dests, cs.Owner)
		}
	}
	slices.Sort(dests)
	return dests, owners
}

// mergedDests returns the destination list of one transmission from the
// outputs that share its tuple, and its slot bitset. When every label is a
// current member named once, that is the canonical list of their union.
// Otherwise the transmission gets a list of its own, repeats included — a
// filter that decided two sets on one tuple in the same release is
// delivered it twice — and the bitset is 0.
func (e *Engine) mergedDests(run []pendingOut) ([]string, uint64) {
	var (
		owners uint64
		one    [1]string
	)
	exact := true
	for i := range run {
		if b := run[i].owners; b != 0 {
			exact = exact && owners&b == 0
			owners |= b
			continue
		}
		for _, d := range run[i].labels(&one) {
			b := e.labelBit(d)
			exact = exact && b != 0 && owners&b == 0
			owners |= b
		}
	}
	if exact {
		if l := e.destList(owners); l != nil {
			return l, owners
		}
	}
	n := 0
	for i := range run {
		n += len(run[i].labels(&one))
	}
	dests := make([]string, 0, n)
	for i := range run {
		dests = append(dests, run[i].labels(&one)...)
	}
	slices.Sort(dests)
	if !exact {
		owners = 0
	}
	return dests, owners
}

// foldDelivered adds the deliveries counted by slot to Stats.PerFilter
// and restarts the count. It runs before the slots move and wherever the
// map is read.
func (e *Engine) foldDelivered() {
	for i, n := range e.delivered {
		if n != 0 {
			e.result.Stats.PerFilter[e.ids[i]] += n
			e.delivered[i] = 0
		}
	}
}
