package server

import (
	"sync"
	"sync/atomic"

	"gasf/internal/telemetry"
)

// frame is one encoded output frame, shared immutably across every
// subscriber queue it fans out to. The sink encodes a released
// transmission exactly once, sets the reference count to the fan-out
// width, and each consumer releases its reference after writing (or
// dropping) the frame; the last release returns it to the free list.
//
// Ownership rule (DESIGN.md §8): a subscriber may read fr.buf until it
// calls release, and never after; nobody mutates fr.buf once the frame is
// shared.
type frame struct {
	buf  []byte
	refs atomic.Int32
	// ts is the encoded tuple's source timestamp (UnixNano); egress
	// subtracts it from the write instant to observe delivery latency.
	// Zero means "do not observe" (telemetry disabled).
	ts int64
	// src points at the originating source's latency estimator pair, so
	// per-group quantiles can be fed from the egress side without a
	// registry lookup. Nil when telemetry is disabled.
	src *telemetry.LatencyPair
}

// Retention bounds of the process-wide free lists (DESIGN.md §8): what
// survives a burst is capped at this many frames, batches and sink
// scratches; returns beyond the bound go to the collector.
const (
	maxFreeFrames  = 65536
	maxFreeBatches = 4096
	maxFreeScratch = 64
)

// freeList is a bounded LIFO of recycled objects shared by every server
// in the process. Unlike a sync.Pool, a garbage collection does not
// empty it, so how much the fan-out path allocates does not depend on
// when the collector runs; and the race detector does not randomize it.
// Takes and gives move whole runs under one lock.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
	max   int
}

// take appends up to n recycled items to dst.
func (l *freeList[T]) take(dst []T, n int) []T {
	l.mu.Lock()
	k := len(l.items) - min(n, len(l.items))
	dst = append(dst, l.items[k:]...)
	clear(l.items[k:])
	l.items = l.items[:k]
	l.mu.Unlock()
	return dst
}

// pop takes one recycled item, if there is one.
func (l *freeList[T]) pop() (item T, ok bool) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		item, ok = l.items[n-1], true
		var zero T
		l.items[n-1] = zero
		l.items = l.items[:n-1]
	}
	l.mu.Unlock()
	return item, ok
}

// push recycles one item, leaving it to the collector beyond the bound.
func (l *freeList[T]) push(item T) {
	l.mu.Lock()
	if len(l.items) < l.max {
		l.items = append(l.items, item)
	}
	l.mu.Unlock()
}

// give recycles items, leaving any beyond the bound to the collector.
func (l *freeList[T]) give(items []T) {
	if len(items) == 0 {
		return
	}
	l.mu.Lock()
	l.items = append(l.items, items[:min(len(items), l.max-len(l.items))]...)
	l.mu.Unlock()
}

var (
	freeFrames  = freeList[*frame]{max: maxFreeFrames}
	freeBatches = freeList[*frameBatch]{max: maxFreeBatches}
)

// frameStats is the free-list ledger behind the leak-detector tests:
// when enabled, every frame/batch checkout and final release is
// counted, so a quiesced server must show gets == puts — any imbalance
// is a reference leaked (or double-released) somewhere in the fan-out,
// drop, eviction or teardown paths. Disabled (the default) it costs one
// predictable-branch atomic load per event.
var frameStats struct {
	enabled   atomic.Bool
	frameGets atomic.Uint64
	framePuts atomic.Uint64
	batchGets atomic.Uint64
	batchPuts atomic.Uint64
	// fresh counts frames and batches allocated because the free list
	// came up short.
	freshFrames  atomic.Uint64
	freshBatches atomic.Uint64
}

// takeFrames appends n empty frames to dst: recycled ones first, then
// fresh ones for whatever the free list lacks, born together — one
// allocation for the frames and one for their buffers, each clipped to
// size bytes plus a quarter of headroom (size is the caller's last frame
// size; 0 leaves the buffers to the first append). A run's memory goes
// back to the collector only with the last of its frames. The ledger
// counts a frame when it is handed out, not here.
func takeFrames(dst []*frame, n, size int) []*frame {
	start := len(dst)
	dst = freeFrames.take(dst, n)
	fresh := n - (len(dst) - start)
	if fresh <= 0 {
		return dst
	}
	if frameStats.enabled.Load() {
		frameStats.freshFrames.Add(uint64(fresh))
	}
	frames := make([]frame, fresh)
	size += size / 4
	var bufs []byte
	if size > 0 {
		bufs = make([]byte, fresh*size)
	}
	for i := range frames {
		if size > 0 {
			frames[i].buf = bufs[i*size : i*size : (i+1)*size]
		}
		dst = append(dst, &frames[i])
	}
	return dst
}

// frameStash hands out empty frames from a run taken off the free list
// under one lock. Frames still in the stash are not checked out: drop
// returns them without touching the ledger.
type frameStash struct {
	frames []*frame
}

// get checks out one frame, refilling the empty stash with want frames
// (fresh ones born with buffers of size bytes; see takeFrames).
func (st *frameStash) get(want, size int) *frame {
	if len(st.frames) == 0 {
		st.frames = takeFrames(st.frames, max(want, 1), size)
	}
	if frameStats.enabled.Load() {
		frameStats.frameGets.Add(1)
	}
	fr := st.frames[len(st.frames)-1]
	st.frames[len(st.frames)-1] = nil
	st.frames = st.frames[:len(st.frames)-1]
	return fr
}

// drop returns the frames the stash did not hand out.
func (st *frameStash) drop() {
	freeFrames.give(st.frames)
	clear(st.frames)
	st.frames = st.frames[:0]
}

// retain sets the fan-out count before the frame is shared. It must be
// called exactly once, before any send.
func (fr *frame) retain(n int) { fr.refs.Store(int32(n)) }

// release drops one reference, recycling the frame when it was the last.
func (fr *frame) release() {
	one := [1]*frame{fr}
	releaseFrames(one[:])
}

// releaseFrames drops one reference on each frame and returns the frames
// whose last reference that was to the free list under one lock. It
// reorders and clears frs.
func releaseFrames(frs []*frame) {
	dead := 0
	for _, fr := range frs {
		if fr.refs.Add(-1) == 0 {
			fr.buf, fr.ts, fr.src = fr.buf[:0], 0, nil
			frs[dead] = fr
			dead++
		}
	}
	if frameStats.enabled.Load() {
		frameStats.framePuts.Add(uint64(dead))
	}
	freeFrames.give(frs[:dead])
	clear(frs)
}

// frameBatch is one release cycle's worth of shared frames for one
// subscriber: the sink stages a subscriber's frames into a recycled
// batch and hands the whole batch to the subscriber queue with a single
// channel operation, instead of one per frame. Ownership of the batch
// (the slice, not the frames' refcounts) moves with it: the sink owns it
// while staging, the writer (or the dropping sender) owns it after, and
// whoever releases the frames returns the batch to the free list.
type frameBatch struct {
	frames []*frame
}

// takeBatches appends n empty batches to dst, checking them out: recycled
// ones first, fresh ones of capacity size for the shortfall. A batch
// fresh from the allocator is born at the flush batch size, so staging a
// cycle into it never regrows it.
func takeBatches(dst []*frameBatch, n, size int) []*frameBatch {
	start := len(dst)
	dst = freeBatches.take(dst, n)
	if fresh := n - (len(dst) - start); fresh > 0 {
		if frameStats.enabled.Load() {
			frameStats.freshBatches.Add(uint64(fresh))
		}
		// Born together: one allocation for the batches, one for their
		// frame slices.
		batches, slots := make([]frameBatch, fresh), make([]*frame, fresh*size)
		for i := range batches {
			batches[i].frames = slots[i*size : i*size : (i+1)*size]
			dst = append(dst, &batches[i])
		}
	}
	if frameStats.enabled.Load() {
		frameStats.batchGets.Add(uint64(n))
	}
	return dst
}

// putBatches recycles batches whose frames have been handed off (or
// released), under one lock. It clears the frame pointers so the free
// list does not pin them, and clears bs.
func putBatches(bs []*frameBatch) {
	for _, b := range bs {
		clear(b.frames)
		b.frames = b.frames[:0]
	}
	if frameStats.enabled.Load() {
		frameStats.batchPuts.Add(uint64(len(bs)))
	}
	freeBatches.give(bs)
	clear(bs)
}

// putBatch recycles one batch.
func putBatch(b *frameBatch) {
	one := [1]*frameBatch{b}
	putBatches(one[:])
}

// releaseAll drops one reference per staged frame and recycles the
// batch — the drop/teardown path.
func (b *frameBatch) releaseAll() {
	releaseFrames(b.frames)
	putBatch(b)
}
