// Package shard implements the sharded concurrent multi-source runtime:
// many independent single-source engines (internal/core) hash-partitioned
// onto a fixed set of worker shards, each shard owning its sources'
// engines and feeding them through a bounded input queue.
//
// The design keeps the paper's single-source semantics intact while
// letting multi-source workloads scale across cores:
//
//   - Every source is assigned to exactly one shard (FNV-1a hash of the
//     source name modulo the shard count), so all of a source's tuples are
//     processed by one goroutine in feed order. The per-source released
//     transmission sequence is therefore identical to a sequential
//     core.Run over the same tuples — the equivalence property test in
//     this package asserts byte-identical output.
//   - Shard inboxes are bounded lock-free MPSC rings (ring.go): producers
//     reserve runs of slots with one CAS (SubmitBatch crosses the shard
//     boundary in a single synchronization for a whole flush), the worker
//     drains whole runs per pop, and park/unpark happens only on
//     empty/non-empty (consumer doorbell) and full/non-full (producer
//     gate) transitions. Feeding a full shard blocks the producer
//     (backpressure) unless the non-blocking Offer is used, in which case
//     the tuple is dropped and counted.
//   - Released transmissions are flushed to the delivery sink in batches
//     (Config.FlushBatch) to amortize per-delivery dissemination cost;
//     a shard flushes early whenever its ring idles, so batching bounds
//     cost, not latency.
//   - Each shard keeps lock-free metrics counters (tuples enqueued,
//     processed, dropped, flush count, observed queue depth, drained-run
//     occupancy and park counts) exposed as Snapshots for monitoring and
//     benchmarks.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
)

// Default queue and batch sizes. The defaults favor throughput under
// load while the idle-flush rule keeps single-stream latency at one
// tuple.
const (
	DefaultQueueDepth = 256
	DefaultFlushBatch = 32
)

// Sentinel errors wrapped by the runtime's lookup failures, so callers
// layered above (the embedded broker, the networked server) can treat
// "the source is gone" distinctly from real faults with errors.Is.
var (
	// ErrUnknownSource reports an operation on a source name the runtime
	// does not know.
	ErrUnknownSource = errors.New("unknown source")
	// ErrSourceFinished reports an operation on a source whose stream has
	// already been finished.
	ErrSourceFinished = errors.New("finished")
	// ErrDrained reports an operation against a runtime that has already
	// drained.
	ErrDrained = errors.New("drained")
)

// Config sizes the runtime.
type Config struct {
	// Shards is the number of worker shards; 0 means GOMAXPROCS.
	Shards int
	// QueueDepth is the bounded input ring capacity per shard, rounded up
	// to a power of two; 0 means DefaultQueueDepth.
	QueueDepth int
	// FlushBatch is the released-transmission batch size per flush; 0
	// means DefaultFlushBatch.
	FlushBatch int
	// Telemetry, when non-nil, receives sampled ring-residency and
	// engine-Step stage timings. Nil disables instrumentation.
	Telemetry *telemetry.Pipeline
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.FlushBatch <= 0 {
		c.FlushBatch = DefaultFlushBatch
	}
	return c
}

// FromOptions extracts the runtime knobs from engine options; zero knobs
// stay zero and take their defaults in New.
func FromOptions(o core.Options) Config {
	return Config{Shards: o.ShardCount, QueueDepth: o.QueueDepth, FlushBatch: o.FlushBatch}
}

// Out is one released transmission tagged with its source.
type Out struct {
	Source string
	Tr     core.Transmission
}

// Sink receives batched flushes of released transmissions. It is invoked
// from shard worker goroutines: all outputs of one source arrive from the
// same goroutine in release order, but different sources flush
// concurrently, so the sink must be safe for concurrent use. The batch
// slice is reused between flushes and must not be retained.
type Sink func(batch []Out)

// source is the per-source runtime state, owned by one shard worker after
// Start (failErr/finished are only touched by that worker).
type source struct {
	name   string
	engine *core.Engine
	shard  int
	// failed latches the first engine error; later Feed/Offer/Control
	// calls are rejected so callers learn the stream broke. failErr is
	// written by the owning worker before the failed Store, so readers
	// that observed failed==true may read it.
	failed  atomic.Bool
	failErr error
	// finished marks that Finish ran on the engine.
	finished bool
	// closed is set by FinishSource on the feeding side to reject
	// further Feed/Offer calls.
	closed atomic.Bool
}

// task is one unit of shard work; a nil tuple with a nil control finishes
// the source.
type task struct {
	src *source
	t   *tuple.Tuple
	ctl *control
	// fin, when set on a finish marker, receives the engine's Finish
	// error after the final flush (FinishSourceWait).
	fin chan error
	// enq, when non-zero, is the telemetry.Now stamp taken at submit on
	// a sampled task; the worker turns it into a ring-wait observation.
	enq int64
}

// control is a caller-supplied function executed by the source's owning
// worker at a tuple boundary — after every tuple fed before it, before
// every tuple fed after. The server uses it to mutate live engine
// membership (AddFilter/RemoveFilter) without pausing other sources.
type control struct {
	fn   func(*core.Engine) error
	done chan error
}

// Runtime drives a set of registered sources over Config.Shards worker
// shards. Configure with AddSource/AddGroup, call Start once, feed tuples
// with Feed/Offer (per-source calls must be serialized by the caller, as
// with a single engine), then FinishSource/Drain.
type Runtime struct {
	cfg     Config
	workers []*worker

	mu      sync.Mutex
	sources map[string]*source
	started bool
	drained bool

	ctx     context.Context
	sink    Sink
	wg      sync.WaitGroup
	startAt time.Time
	endAt   time.Time

	// sendMu gates queue sends against Drain closing the queues: Feed /
	// Offer / Control / FinishSource hold the read side across their
	// send; Drain seals the runtime under the write side before closing,
	// so a racing send gets a clean error instead of a panic.
	sendMu sync.RWMutex
	sealed bool

	errMu sync.Mutex
	errs  []error
}

// New creates a runtime; zero config fields take defaults.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	r := &Runtime{cfg: cfg, sources: make(map[string]*source)}
	r.workers = make([]*worker, cfg.Shards)
	for i := range r.workers {
		r.workers[i] = &worker{id: i, rt: r, in: newRing(cfg.QueueDepth)}
	}
	return r
}

// Shards returns the shard count in effect.
func (r *Runtime) Shards() int { return r.cfg.Shards }

// ShardOf returns the shard index a source name partitions onto.
func (r *Runtime) ShardOf(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(r.cfg.Shards))
}

// AddSource registers a source with a pre-built engine. Sources must be
// added before Start; for sources arriving while the runtime is live, use
// AddSourceLive.
func (r *Runtime) AddSource(name string, engine *core.Engine) error {
	return r.addSource(name, engine, false)
}

// AddSourceLive registers a source while the runtime is running: tuples
// may be fed to it as soon as the call returns. The networked server uses
// it for publishers that connect after startup.
func (r *Runtime) AddSourceLive(name string, engine *core.Engine) error {
	return r.addSource(name, engine, true)
}

func (r *Runtime) addSource(name string, engine *core.Engine, live bool) error {
	if name == "" {
		return fmt.Errorf("shard: empty source name")
	}
	if engine == nil {
		return fmt.Errorf("shard: source %q has a nil engine", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started && !live {
		return fmt.Errorf("shard: cannot add source %q after Start", name)
	}
	if r.drained {
		return fmt.Errorf("shard: cannot add source %q after Drain", name)
	}
	if _, dup := r.sources[name]; dup {
		return fmt.Errorf("shard: source %q already added", name)
	}
	sh := r.ShardOf(name)
	r.sources[name] = &source{name: name, engine: engine, shard: sh}
	r.workers[sh].srcCount.Add(1)
	return nil
}

// RemoveSource forgets a finished source, freeing its name for reuse (a
// publisher reconnecting under the same name gets a fresh engine). The
// source must have been finished first; its engine result is no longer
// reported by Results after removal, so read it before removing if needed.
func (r *Runtime) RemoveSource(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	src, ok := r.sources[name]
	if !ok {
		return fmt.Errorf("shard: %w %q", ErrUnknownSource, name)
	}
	if !src.closed.Load() {
		return fmt.Errorf("shard: source %q not finished", name)
	}
	delete(r.sources, name)
	r.workers[src.shard].srcCount.Add(-1)
	return nil
}

// AddGroup registers a source with a fresh engine over the given filter
// group.
func (r *Runtime) AddGroup(name string, filters []filter.Filter, opts core.Options) error {
	e, err := core.NewEngine(filters, opts)
	if err != nil {
		return fmt.Errorf("shard: source %q: %w", name, err)
	}
	return r.AddSource(name, e)
}

// Start launches the shard workers. The sink may be nil when only the
// per-source Results are of interest. The context cancels feeding and
// stops the workers; tuples still queued at cancellation are dropped.
func (r *Runtime) Start(ctx context.Context, sink Sink) error {
	if ctx == nil {
		ctx = context.Background()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return fmt.Errorf("shard: already started")
	}
	r.started = true
	r.ctx = ctx
	r.sink = sink
	r.startAt = time.Now()
	for _, w := range r.workers {
		r.wg.Add(1)
		go w.run(ctx)
	}
	return nil
}

// lookup resolves a live source and its worker for feeding. allowFailed
// admits a source whose engine has failed (the finish path must still be
// able to retire it).
func (r *Runtime) lookup(name string, allowFailed bool) (*source, *worker, error) {
	r.mu.Lock()
	src, ok := r.sources[name]
	started := r.started
	r.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("shard: %w %q", ErrUnknownSource, name)
	}
	if !started {
		return nil, nil, fmt.Errorf("shard: Feed before Start")
	}
	if src.closed.Load() {
		return nil, nil, fmt.Errorf("shard: source %q already %w", name, ErrSourceFinished)
	}
	if !allowFailed && src.failed.Load() {
		// Observing failed==true synchronizes with the worker's Store, so
		// failErr (written before it) is safe to read here.
		return nil, nil, fmt.Errorf("shard: source %q failed: %w", name, src.failErr)
	}
	return src, r.workers[src.shard], nil
}

// boundCtx bounds a caller-supplied context by the runtime context: the
// returned context is done when either is, so a per-call deadline can
// never outlive a cancelled runtime (and vice versa). The fast path —
// callers passing context.Background(), i.e. "runtime lifetime only" —
// returns the runtime context itself with no allocation.
func (r *Runtime) boundCtx(ctx context.Context) (context.Context, func()) {
	if ctx == nil || ctx.Done() == nil {
		return r.ctx, func() {}
	}
	merged, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(r.ctx, cancel)
	return merged, func() { stop(); cancel() }
}

// sendTask delivers one task to a worker ring under the seal gate,
// blocking while the ring is full.
func (r *Runtime) sendTask(w *worker, tk task) error {
	tasks := [1]task{tk}
	_, err := r.submit(r.ctx, w, tasks[:], true)
	return err
}

// submit is the one copy of the seal-gated ring-push protocol: it pushes
// the tasks with as few ring synchronizations as the free space allows
// and reports how many were enqueued, erring when the runtime has
// drained (sealed) or ctx is cancelled. With block false a full ring
// returns the partial count instead of waiting; with block true a short
// count only accompanies an error. ctx must already be bounded by the
// runtime context (r.ctx itself, or a boundCtx merge).
func (r *Runtime) submit(ctx context.Context, w *worker, tasks []task, block bool) (int, error) {
	r.sendMu.RLock()
	defer r.sendMu.RUnlock()
	if r.sealed {
		return 0, fmt.Errorf("shard: runtime %w", ErrDrained)
	}
	pushed := 0
	for {
		pushed += w.in.tryPush(tasks[pushed:])
		if pushed == len(tasks) {
			return pushed, nil
		}
		if !block {
			return pushed, nil
		}
		if err := w.in.waitSpace(ctx); err != nil {
			return pushed, err
		}
	}
}

// Feed enqueues one tuple for its source's shard, blocking while the
// shard queue is full (backpressure). It fails once the runtime context
// is cancelled or the runtime drained.
func (r *Runtime) Feed(name string, t *tuple.Tuple) error {
	if t == nil {
		return fmt.Errorf("shard: nil tuple for source %q", name)
	}
	src, w, err := r.lookup(name, false)
	if err != nil {
		return err
	}
	// Fail fast once cancelled: the workers are exiting, so a racing
	// send could otherwise park the tuple in a queue nobody reads (the
	// Drain sweep still counts any that slip through as dropped).
	if err := r.ctx.Err(); err != nil {
		w.dropped.Add(1)
		return err
	}
	if err := r.sendTask(w, task{src: src, t: t}); err != nil {
		w.dropped.Add(1)
		return err
	}
	w.enqueued.Add(1)
	return nil
}

// Offer is the non-blocking Feed: it reports false, counting a drop,
// when the shard queue is full, and fails once the runtime context is
// cancelled or the runtime drained.
func (r *Runtime) Offer(name string, t *tuple.Tuple) (bool, error) {
	if t == nil {
		return false, fmt.Errorf("shard: nil tuple for source %q", name)
	}
	src, w, err := r.lookup(name, false)
	if err != nil {
		return false, err
	}
	if err := r.ctx.Err(); err != nil {
		w.dropped.Add(1)
		return false, err
	}
	tasks := [1]task{{src: src, t: t}}
	sent, err := r.submit(r.ctx, w, tasks[:], false)
	if sent == 0 {
		w.dropped.Add(1)
		return false, err
	}
	w.enqueued.Add(1)
	return true, nil
}

// taskBufPool recycles the task scratch behind SubmitBatch so batched
// feeding does not allocate per flush.
var taskBufPool = sync.Pool{New: func() any {
	s := make([]task, 0, DefaultFlushBatch)
	return &s
}}

// SubmitBatch enqueues a run of tuples for one source, crossing the
// shard boundary in as few ring synchronizations as free space allows
// (one CAS when the ring has room) instead of one per tuple. It blocks
// while the ring is full (backpressure) and preserves feed order: like
// Feed, per-source calls must be serialized by the caller. The slice is
// not retained. On error, tuples not enqueued are counted as dropped.
func (r *Runtime) SubmitBatch(name string, tuples []*tuple.Tuple) error {
	return r.SubmitBatchContext(context.Background(), name, tuples)
}

// SubmitBatchContext is SubmitBatch bounded by ctx: a producer blocked on
// a full ring unblocks — with an error, counting the unpushed tail as
// dropped — when either ctx or the runtime context is cancelled. The
// embedded broker uses it to give Publish calls per-caller deadlines.
func (r *Runtime) SubmitBatchContext(ctx context.Context, name string, tuples []*tuple.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	src, w, err := r.lookup(name, false)
	if err != nil {
		return err
	}
	ctx, release := r.boundCtx(ctx)
	defer release()
	if err := ctx.Err(); err != nil {
		w.dropped.Add(uint64(len(tuples)))
		return err
	}
	bp := taskBufPool.Get().(*[]task)
	tasks := (*bp)[:0]
	for _, t := range tuples {
		if t == nil {
			*bp = tasks[:0]
			taskBufPool.Put(bp)
			return fmt.Errorf("shard: nil tuple in batch for source %q", name)
		}
		tasks = append(tasks, task{src: src, t: t})
	}
	if r.cfg.Telemetry.Sample(telemetry.StageRingWait) {
		tasks[0].enq = telemetry.Now()
	}
	pushed, err := r.submit(ctx, w, tasks, true)
	w.enqueued.Add(uint64(pushed))
	if pushed < len(tasks) {
		w.dropped.Add(uint64(len(tasks) - pushed))
	}
	clear(tasks)
	*bp = tasks[:0]
	taskBufPool.Put(bp)
	return err
}

// Control runs fn on the source's engine from its owning shard worker at
// a tuple boundary, and blocks until fn has run (or the runtime context is
// cancelled). Tuples fed before the call are processed first; tuples fed
// after it (by the same feeder) are processed after. fn must not retain
// the engine past its return. Any outputs fn releases (e.g. a RemoveFilter
// closing a region) are flushed to the sink before Control returns.
func (r *Runtime) Control(name string, fn func(*core.Engine) error) error {
	return r.ControlContext(context.Background(), name, fn)
}

// ControlContext is Control bounded by ctx: both the enqueue (which can
// block behind a full ring) and the wait for the worker to run fn return
// early when ctx is cancelled. A cancellation after fn was enqueued does
// not revoke it — fn still runs at its tuple boundary; only the caller
// stops waiting. A cancellation during the enqueue means fn never runs.
func (r *Runtime) ControlContext(ctx context.Context, name string, fn func(*core.Engine) error) error {
	if fn == nil {
		return fmt.Errorf("shard: nil control function for source %q", name)
	}
	src, w, err := r.lookup(name, false)
	if err != nil {
		return err
	}
	ctx, release := r.boundCtx(ctx)
	defer release()
	if err := ctx.Err(); err != nil {
		return err
	}
	ctl := &control{fn: fn, done: make(chan error, 1)}
	tasks := [1]task{{src: src, ctl: ctl}}
	if _, err := r.submit(ctx, w, tasks[:], true); err != nil {
		return err
	}
	select {
	case err := <-ctl.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FinishSource marks the end of a source's stream: the shard runs the
// engine's Finish and flushes its remaining outputs. Further Feed calls
// for the source fail.
func (r *Runtime) FinishSource(name string) error {
	return r.finishSource(r.ctx, name, nil)
}

// FinishSourceWait is FinishSource that blocks until the engine's Finish
// has run and its final outputs have been flushed to the sink — the
// networked server and the embedded broker use it to flush a departing
// publisher's tail before tearing down its subscribers.
func (r *Runtime) FinishSourceWait(name string) error {
	return r.FinishSourceWaitContext(context.Background(), name)
}

// FinishSourceWaitContext is FinishSourceWait bounded by ctx — both the
// enqueue of the finish marker (which can block behind a full ring) and
// the wait for the final flush. A cancellation after the marker was
// enqueued does not un-finish the source: the engine still finishes at
// its boundary. A cancellation that struck while the marker was still
// queueing leaves the source closed to feeding; Drain retires it.
func (r *Runtime) FinishSourceWaitContext(ctx context.Context, name string) error {
	ctx, release := r.boundCtx(ctx)
	defer release()
	fin := make(chan error, 1)
	if err := r.finishSource(ctx, name, fin); err != nil {
		return err
	}
	select {
	case err := <-fin:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Runtime) finishSource(ctx context.Context, name string, fin chan error) error {
	src, w, err := r.lookup(name, true)
	if err != nil {
		return err
	}
	src.closed.Store(true)
	tasks := [1]task{{src: src, fin: fin}}
	_, err = r.submit(ctx, w, tasks[:], true)
	return err
}

// Drain finishes every source not yet finished, closes the shard queues,
// and waits for the workers to exit. It must only be called after all
// feeding goroutines have stopped. It returns the accumulated engine and
// cancellation errors, if any.
func (r *Runtime) Drain() error {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return fmt.Errorf("shard: Drain before Start")
	}
	if r.drained {
		r.mu.Unlock()
		return fmt.Errorf("shard: already drained")
	}
	r.drained = true
	names := make([]string, 0, len(r.sources))
	for name, src := range r.sources {
		if !src.closed.Load() {
			names = append(names, name)
		}
	}
	r.mu.Unlock()
	sort.Strings(names)
	if err := r.ctx.Err(); err != nil {
		// Cancelled: the workers are gone (or going); engines cannot be
		// finished, so the drain reports the cancellation instead.
		r.recordErr(err)
		names = nil
	}
	for _, name := range names {
		if err := r.FinishSource(name); err != nil {
			r.recordErr(err)
			break // context cancelled; remaining finishes would fail too
		}
	}
	// Seal before closing: a concurrent Feed/Control racing this drain
	// (e.g. a live subscribe as the run ends) errors out instead of
	// pushing into a closed ring. Taking the write side also waits out
	// any producer mid-push, so close() below sees every reserved cell
	// published.
	r.sendMu.Lock()
	r.sealed = true
	r.sendMu.Unlock()
	for _, w := range r.workers {
		w.in.close()
	}
	r.wg.Wait()
	// Sweep tuples stranded in the rings: after cancellation a push can
	// race the exiting worker, so count the leftovers as dropped to keep
	// Enqueued == Processed + worker drops + sweep drops. The workers
	// have exited, so Drain is the sole consumer here.
	for _, w := range r.workers {
		w.dropQueued()
	}
	r.mu.Lock()
	r.endAt = time.Now()
	r.mu.Unlock()
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return errors.Join(r.errs...)
}

// FeedAll drives one finite series per source through the runtime — one
// producer goroutine per source, submitting FlushBatch-sized batches
// with blocking backpressure — then drains. Feed errors are folded into
// the drain's joined error, so none are lost when engines fail too.
func (r *Runtime) FeedAll(series map[string]*tuple.Series) error {
	var wg sync.WaitGroup
	for name, sr := range series {
		wg.Add(1)
		go func(name string, sr *tuple.Series) {
			defer wg.Done()
			batch := make([]*tuple.Tuple, 0, r.cfg.FlushBatch)
			for i := 0; i < sr.Len(); i++ {
				batch = append(batch, sr.At(i))
				if len(batch) < cap(batch) && i+1 < sr.Len() {
					continue
				}
				if err := r.SubmitBatch(name, batch); err != nil {
					r.recordErr(err)
					return
				}
				batch = batch[:0]
			}
		}(name, sr)
	}
	wg.Wait()
	return r.Drain()
}

func (r *Runtime) recordErr(err error) {
	r.errMu.Lock()
	r.errs = append(r.errs, err)
	r.errMu.Unlock()
}

// Results returns the per-source engine results. Call after Drain for
// complete, settled results.
func (r *Runtime) Results() map[string]*core.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*core.Result, len(r.sources))
	for name, src := range r.sources {
		out[name] = src.engine.Result()
	}
	return out
}

// drainRunMax bounds one popRun, so a worker's drain buffer stays small
// even when the ring is deep.
const drainRunMax = 256

// worker is one shard: a goroutine owning the engines of its sources.
type worker struct {
	id      int
	rt      *Runtime
	in      *ring
	pending []Out

	srcCount atomic.Int64

	enqueued  atomic.Uint64
	processed atomic.Uint64
	dropped   atomic.Uint64
	flushes   atomic.Uint64
	maxQueue  atomic.Int64
	drains    atomic.Uint64
	drained   atomic.Uint64
}

func (w *worker) run(ctx context.Context) {
	defer w.rt.wg.Done()
	n := int(w.in.capacity())
	if n > drainRunMax {
		n = drainRunMax
	}
	buf := make([]task, n)
	for {
		if ctx.Err() != nil {
			w.dropQueued()
			return
		}
		n := w.in.popRun(buf)
		if n == 0 {
			if w.in.isClosed() {
				// Sealed and empty: every producer is gone and the final
				// finish markers have been handled.
				w.flush()
				return
			}
			w.in.park(ctx)
			continue
		}
		w.observeDepth(int64(n) + int64(w.in.Len()))
		w.drains.Add(1)
		w.drained.Add(uint64(n))
		for i := range buf[:n] {
			w.handle(buf[i])
			buf[i] = task{}
		}
		// Idle flush: batching amortizes cost but must not hold output
		// once the ring has caught up.
		if len(w.pending) > 0 && !w.in.ready() {
			w.flush()
		}
	}
}

// dropQueued counts the tuples abandoned in the ring at cancellation (or
// swept by Drain after the workers exited).
func (w *worker) dropQueued() {
	var buf [64]task
	for {
		n := w.in.popRun(buf[:])
		if n == 0 {
			return
		}
		for i := 0; i < n; i++ {
			if buf[i].t != nil {
				w.dropped.Add(1)
			}
			buf[i] = task{}
		}
	}
}

func (w *worker) handle(tk task) {
	src := tk.src
	if tk.ctl != nil {
		var err error
		if src.failed.Load() {
			err = fmt.Errorf("shard %d: source %q already failed", w.id, src.name)
		} else if src.finished {
			// The control passed lookup but landed behind the finish
			// marker: same answer as one that lost the race at lookup.
			err = fmt.Errorf("shard: source %q already %w", src.name, ErrSourceFinished)
		} else {
			err = tk.ctl.fn(src.engine)
			w.collect(src)
			w.flush()
		}
		tk.ctl.done <- err
		return
	}
	if tk.t == nil { // finish marker
		var finErr error
		switch {
		case src.failed.Load():
			// The stream already broke; report the original failure so a
			// FinishSourceWait caller learns the stream did not end clean.
			finErr = src.failErr
		case !src.finished:
			if err := src.engine.Finish(); err != nil {
				w.fail(src, err)
				finErr = err
			} else {
				w.collect(src)
			}
		}
		src.finished = true
		w.flush()
		if tk.fin != nil {
			tk.fin <- finErr
		}
		return
	}
	if src.failed.Load() {
		w.dropped.Add(1)
		return
	}
	tel := w.rt.cfg.Telemetry
	if tk.enq != 0 {
		tel.Observe(telemetry.StageRingWait, telemetry.Since(tk.enq))
	}
	var stepErr error
	if tel.Sample(telemetry.StageEngineStep) {
		t0 := time.Now()
		stepErr = src.engine.Step(tk.t)
		tel.Observe(telemetry.StageEngineStep, time.Since(t0))
	} else {
		stepErr = src.engine.Step(tk.t)
	}
	if stepErr != nil {
		w.fail(src, stepErr)
		w.dropped.Add(1) // the failing tuple was not processed
		return
	}
	w.processed.Add(1)
	w.collect(src)
	if len(w.pending) >= w.rt.cfg.FlushBatch {
		w.flush()
	}
}

// collect stages the engine's newly released transmissions for the next
// flush. Whether the engine also keeps them is the engine's business (a
// drained engine does not); the worker copies what it forwards.
func (w *worker) collect(src *source) {
	for _, tr := range src.engine.Released() {
		w.pending = append(w.pending, Out{Source: src.name, Tr: tr})
	}
}

func (w *worker) flush() {
	if len(w.pending) == 0 {
		return
	}
	w.flushes.Add(1)
	if w.rt.sink != nil {
		w.rt.sink(w.pending)
	}
	// Flushed transmissions are the sink's now; the reused buffer must not
	// keep their tuples reachable.
	clear(w.pending)
	w.pending = w.pending[:0]
}

func (w *worker) fail(src *source, err error) {
	src.failErr = err
	src.failed.Store(true)
	w.rt.recordErr(fmt.Errorf("shard %d: source %q: %w", w.id, src.name, err))
}

func (w *worker) observeDepth(d int64) {
	for {
		cur := w.maxQueue.Load()
		if d <= cur || w.maxQueue.CompareAndSwap(cur, d) {
			return
		}
	}
}
