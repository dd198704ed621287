package shard

import (
	"context"
	"sync/atomic"
)

// ring is the bounded lock-free multi-producer single-consumer queue
// behind each shard worker. It replaces the chan-based inbox so the
// runtime synchronizes per *batch*, not per task:
//
//   - Producers reserve a run of slots with one CAS on the tail cursor
//     (tryPush takes a whole slice), write their tasks, and publish each
//     cell with a per-cell sequence store — the Vyukov bounded-queue cell
//     protocol, restricted to a single consumer.
//   - The consumer drains whole runs of published cells (popRun) and
//     advances the head cursor once per run, so a worker pays one
//     synchronization per drained batch.
//   - Parking is edge-triggered, channel-doorbell style: the consumer
//     parks only on an empty ring (bell channel, rung by the producer
//     that makes the ring non-empty), and producers park only on a full
//     ring (space channel, rung by the consumer when it frees slots and
//     passed on from woken producer to parked producer while space
//     lasts). Both bells have capacity 1 and are made once, so parking
//     allocates nothing; steady-state flow crosses the ring without any
//     channel or mutex operations.
//
// Memory-ordering note: the park paths use the store-then-recheck
// pattern on both sides (consumer stores `sleeping` then rechecks for
// published input; producers count themselves into `prodParked` then
// recheck for free slots; the waking side does the mirror-image store
// then flag load).
// Go's sync/atomic operations are sequentially consistent, so one of the
// two racing parties always observes the other — a parked party with
// work (or space) available is impossible.
//
// Capacity is rounded up to a power of two. Cell sequence values never
// repeat for the same (cell, lap) pair, so a stale cell from the
// previous lap can never be mistaken for a published one.
type ring struct {
	mask  uint64
	cells []ringCell

	_    [64]byte // keep the cursors off the cells' cache lines
	tail atomic.Uint64
	_    [64]byte
	head atomic.Uint64
	_    [64]byte

	// Consumer parking: sleeping is the consumer's declared intent to
	// park; bell (capacity 1) is rung by producers that observe it after
	// publishing.
	sleeping atomic.Bool
	bell     chan struct{}

	// Producer parking: prodParked counts the producers that declared
	// intent to park on a full ring; space (capacity 1) is rung by the
	// consumer after freeing slots while the count is nonzero, and each
	// woken producer rings it again for the next while parked producers
	// and free slots both remain — a chain instead of a broadcast.
	space      chan struct{}
	prodParked atomic.Int32

	// closed marks the end of input (set after the runtime seals, so no
	// producer can be mid-push); closedCh unparks the consumer for its
	// final drain.
	closed   atomic.Bool
	closedCh chan struct{}

	producerParks atomic.Uint64
	consumerParks atomic.Uint64
}

// ringCell is one slot: seq == index+1 marks the cell published for the
// current lap.
type ringCell struct {
	seq atomic.Uint64
	tk  task
}

func newRing(capacity int) *ring {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &ring{
		mask:     uint64(c - 1),
		cells:    make([]ringCell, c),
		bell:     make(chan struct{}, 1),
		space:    make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
}

func (q *ring) capacity() uint64 { return q.mask + 1 }

// Len reports the slots currently reserved or published. It may briefly
// include reservations whose tasks are still being written; it is exact
// once producers are quiesced.
func (q *ring) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// tryPush reserves up to len(tks) slots with a single CAS, fills them,
// and publishes each cell. It returns how many tasks were enqueued; 0
// means the ring is full. A partial push keeps the pushed prefix's FIFO
// position — the caller resubmits the rest behind it.
func (q *ring) tryPush(tks []task) int {
	want := uint64(len(tks))
	for {
		tail := q.tail.Load()
		free := q.capacity() - (tail - q.head.Load())
		if free == 0 {
			return 0
		}
		k := want
		if k > free {
			k = free
		}
		if !q.tail.CompareAndSwap(tail, tail+k) {
			continue
		}
		for i := uint64(0); i < k; i++ {
			c := &q.cells[(tail+i)&q.mask]
			c.tk = tks[i]
			c.seq.Store(tail + i + 1)
		}
		// Edge-triggered doorbell: only a consumer that declared intent
		// to park costs the producer a channel operation.
		if q.sleeping.Load() {
			select {
			case q.bell <- struct{}{}:
			default:
			}
		}
		return int(k)
	}
}

// popRun drains a run of published tasks into buf, advancing the head
// cursor once. Cells are cleared before the head moves, so a producer
// reusing the slot never races the consumer's write.
func (q *ring) popRun(buf []task) int {
	h := q.head.Load()
	n := 0
	for n < len(buf) {
		c := &q.cells[(h+uint64(n))&q.mask]
		if c.seq.Load() != h+uint64(n)+1 {
			break
		}
		buf[n] = c.tk
		c.tk = task{}
		n++
	}
	if n > 0 {
		q.head.Store(h + uint64(n))
		if q.prodParked.Load() > 0 {
			q.ringSpace()
		}
	}
	return n
}

// ringSpace wakes one parked producer; a rung bell already holds a wake.
func (q *ring) ringSpace() {
	select {
	case q.space <- struct{}{}:
	default:
	}
}

// hasSpace reports whether a push would find a free slot.
func (q *ring) hasSpace() bool { return q.tail.Load()-q.head.Load() < q.capacity() }

// waitSpace parks the calling producer until the consumer frees slots or
// ctx is cancelled. It may return without space (spurious wake, or a wake
// meant for a producer that gave up); callers loop around tryPush.
//
// No wake-up is lost: a producer counts itself parked and then rechecks
// for space, while the consumer moves the head and then reads the count,
// so either the producer sees the freed slots or the consumer sees the
// producer and rings. One ring wakes one producer; before pushing, the
// woken producer rings again if others are still parked and slots are
// still free, so every producer the freed slots can serve is woken in
// turn, and the ones they cannot serve are rung by the next pop.
func (q *ring) waitSpace(ctx context.Context) error {
	q.prodParked.Add(1)
	if q.hasSpace() {
		// Space appeared between the failed push and the park.
		q.prodParked.Add(-1)
		return nil
	}
	q.producerParks.Add(1)
	select {
	case <-q.space:
		if q.prodParked.Add(-1) > 0 && q.hasSpace() {
			q.ringSpace()
		}
		return nil
	case <-ctx.Done():
		// A wake meant for this producer stays in the bell for the next.
		q.prodParked.Add(-1)
		return ctx.Err()
	}
}

// ready reports whether the cell at the head is published.
func (q *ring) ready() bool {
	h := q.head.Load()
	return q.cells[h&q.mask].seq.Load() == h+1
}

// park blocks the consumer until input is published, the ring closes, or
// ctx is cancelled. Spurious returns are fine; the caller loops.
func (q *ring) park(ctx context.Context) {
	q.sleeping.Store(true)
	if q.ready() || q.closed.Load() {
		q.sleeping.Store(false)
		return
	}
	q.consumerParks.Add(1)
	select {
	case <-q.bell:
	case <-q.closedCh:
	case <-ctx.Done():
	}
	q.sleeping.Store(false)
}

// close marks the end of input and unparks the consumer. It must only be
// called once no producer can be inside tryPush (the runtime seals
// first), so every reserved cell is already published.
func (q *ring) close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.closedCh)
	}
}

func (q *ring) isClosed() bool { return q.closed.Load() }
