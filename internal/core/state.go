package core

import "slices"

// Reusable engine state for the steady-state tuple path: a generational
// dense sequence→count index instead of a map[int]int rebuilt entry by
// entry.

// seqCounts is a generational index from tuple sequence number to a small
// counter (the group utility). Sources emit strictly increasing sequence
// numbers and the engine's live window — open admissions plus pending
// regions — trails the stream head closely, so the counts live in a dense
// slice keyed by seq-base. Slots are reclaimed from the front as counts
// drain to zero; the backing array is compacted in place once the dead
// prefix dominates, keeping memory proportional to the live window.
//
// A sequence whose distance from the window start would make the dense
// slice disproportionate — sparse numbering, or an adversarial publisher
// sending far-apart sequence numbers over the network — spills into an
// overflow map instead, so memory stays bounded by the number of live
// entries in the worst case (the behavior of the map this index
// replaced). The logical count of a sequence is dense + overflow.
type seqCounts struct {
	// base is the sequence number of buf[head].
	base int
	// head indexes the first active slot of buf.
	head int
	buf  []int32
	// live counts the non-zero dense slots.
	live int
	// overflow holds sparse entries (always > 0); nil until first needed,
	// so steady-state streams pay one nil check.
	overflow map[int]int32
}

// maxDenseSpan caps the dense window span (256 KiB of counters); entries
// further out spill to the overflow map.
const maxDenseSpan = 1 << 16

// get returns the count for seq, zero when absent.
func (u *seqCounts) get(seq int) int {
	n := 0
	if i := seq - u.base; i >= 0 && u.head+i < len(u.buf) {
		n = int(u.buf[u.head+i])
	}
	if u.overflow != nil {
		n += int(u.overflow[seq])
	}
	return n
}

// inc increments the count for seq, growing the window as the stream
// advances.
func (u *seqCounts) inc(seq int) {
	if u.live == 0 && u.head == len(u.buf) {
		// Empty dense window: rebase on the new head of stream.
		u.head, u.buf, u.base = 0, u.buf[:0], seq
	}
	i := seq - u.base
	if i < 0 || i+1 > maxDenseSpan {
		// Below the window (sources never rewind, but stay correct if one
		// does) or too far ahead of it: count sparsely.
		if u.overflow == nil {
			u.overflow = make(map[int]int32)
		}
		u.overflow[seq]++
		return
	}
	pos := u.head + i
	if n := len(u.buf); pos >= n {
		// Grow and zero by hand: the compiler's allocation-free form of
		// append(buf, make(...)...) is off under the race detector, which
		// is how CI runs the allocation gate.
		u.buf = slices.Grow(u.buf, pos+1-n)[:pos+1]
		clear(u.buf[n:])
	}
	if u.buf[pos] == 0 {
		u.live++
	}
	u.buf[pos]++
}

// dec decrements the count for seq, deleting it at zero (mirroring the
// old map's delete-on-zero) and reclaiming the dead prefix.
func (u *seqCounts) dec(seq int) {
	i := seq - u.base
	pos := u.head + i
	if i < 0 || pos >= len(u.buf) || u.buf[pos] == 0 {
		// Not in the dense window; drain the overflow entry if any.
		if u.overflow != nil {
			if n := u.overflow[seq]; n > 1 {
				u.overflow[seq] = n - 1
			} else {
				delete(u.overflow, seq)
			}
		}
		return
	}
	u.buf[pos]--
	if u.buf[pos] != 0 {
		return
	}
	u.live--
	if pos != u.head {
		return
	}
	// Advance past the dead prefix.
	for u.head < len(u.buf) && u.buf[u.head] == 0 {
		u.head++
		u.base++
	}
	if u.head == len(u.buf) {
		u.head, u.buf = 0, u.buf[:0]
		return
	}
	// Compact once the dead prefix dominates the array, so memory stays
	// proportional to the live window rather than the stream length.
	if u.head >= 1024 && u.head > len(u.buf)-u.head {
		n := copy(u.buf, u.buf[u.head:])
		u.buf, u.head = u.buf[:n], 0
	}
}

// Len returns the number of live (non-zero) entries.
func (u *seqCounts) Len() int { return u.live + len(u.overflow) }

// clearPending zeroes a pendingOut buffer and truncates it, so reused
// capacity does not pin released tuples or destination lists.
func clearPending(buf []pendingOut) []pendingOut {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = pendingOut{}
	}
	return buf[:0]
}
