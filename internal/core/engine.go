package core

import (
	"fmt"
	"time"

	"gasf/internal/filter"
	"gasf/internal/hitting"
	"gasf/internal/predict"
	"gasf/internal/region"
	"gasf/internal/tuple"
)

// Engine coordinates a group of filters over one source stream. It owns the
// global state of the two-stage process (Fig 2.4): group utilities of
// tuples, the current region of connected candidate sets, decided outputs,
// and the output scheduler.
//
// An Engine is single-source and not safe for concurrent use; the shard
// runtime runs one engine per source, on the source's owning worker.
//
// What a Step allocates is what the result retains — the amortized growth
// of Result's slices, which a drained engine (NewDrainedEngine) does not
// have — plus one destination list per owner set the group has not used
// before (dests.go) and the growth of scratch that has not reached its
// working size yet. Everything else is reused: utilities live in a
// generational dense index (state.go), open-set tracking and region
// scratch are engine-owned and cleared in place, and candidate sets cycle
// between the filters and the engine.
//
// Candidate sets. A filter hands a set over when it closes it; from then
// on this engine holds the only references: in the region tracker until
// the set's region is final, then in the tracker's scratch (the Region and
// its Sets, valid until the tracker's next Ready or Flush) and the greedy
// solver's while handleRegion decides it. The per-set bookkeeping
// (Slot, Accounted, Decided, Picks) rides on the set. handleRegion ends by
// recycling every set of the region to its filter's free list: outputs,
// results and the batch buffer hold tuples and owner labels, never sets,
// so nothing may read a set pointer past that point. An engine owns its
// filters — the free lists are touched only under the engine's own
// serialization.
type Engine struct {
	filters []filter.Filter
	opts    Options

	// util maps tuple sequence number to group utility: the number of
	// filters currently holding the tuple in a candidate set.
	util seqCounts
	// open tracks, per filter (parallel to filters), the admitted tuples
	// of the open (unclosed) candidate set, in arrival order.
	open [][]*tuple.Tuple
	// slot maps filter ID to its index in filters/open; rebuilt on the
	// (rare) membership changes so the per-tuple path never hashes IDs.
	slot map[string]int
	// ids holds the filters' IDs by slot, for checking the slot a
	// candidate set was stamped with (dests.go).
	ids []string
	// delivered counts deliveries per slot since they were last folded
	// into Stats.PerFilter (foldDelivered).
	delivered []int
	// tracker accumulates closed sets into regions.
	tracker region.Tracker
	// predictor models greedy run time for timely cuts (§3.3), from
	// counted work (greedyNsPerIncidence).
	predictor *predict.RunTimePredictor
	// batchBuf holds outputs awaiting the next batch boundary.
	batchBuf   []pendingOut
	batchCount int
	// stepBuf holds outputs decided during the current step under the
	// PerCandidateSet strategy; the multicaster sends decided outputs
	// after each input tuple (Fig 2.10, line 11), merging same-tuple
	// decisions made by different filters in the same step.
	stepBuf []pendingOut
	// chosen is the PS global state of recently chosen tuples
	// (heuristic 1), pruned by the chosen horizon.
	chosen     map[int]time.Time
	chosenQ    []chosenRec
	chosenHead int

	// released marks the tuples counted in Stats.DistinctOutputs that some
	// open or pending set may still release again; releasedQ lists them so
	// pruneReleased can retire the ones nothing can (see output.go).
	released  seqCounts
	releasedQ []releasedRec
	pruneAt   int
	// destLists holds the canonical destination list of every owner set
	// used under the current membership, keyed by slot bitset (dests.go).
	destLists map[uint64][]string
	// drain marks an engine whose releases are taken with Released and
	// kept nowhere else; out is its release buffer, recycled once taken.
	drain    bool
	out      []Transmission
	outTaken bool
	// handed counts the transmissions of a retaining engine that Released
	// has already returned.
	handed int

	maxReleasedSeq int
	result         Result
	now            time.Time
	started        bool
	lastTS         time.Time
	finished       bool

	// Scratch state, owned by the engine and reused across steps.

	// minsBuf backs openMins.
	minsBuf []time.Time
	// regionOuts stages one region's outputs during handleRegion, in
	// sequence order; heldOuts holds the picks of its decided sets under
	// EarliestRegion until decideRegion merges them in.
	regionOuts, heldOuts []pendingOut
	// greedyBuf is one region's greedy input; proxies are the stand-ins
	// it points to for the region's already decided sets.
	greedyBuf []*filter.CandidateSet
	proxies   []filter.CandidateSet
	// solver decides regions with reusable greedy state.
	solver hitting.Solver
}

// clock is the time source of a retaining engine's CPU statistics, the
// only clock reads an engine makes; a variable so tests can count and
// slow the reads.
var clock = time.Now

// greedyNsPerIncidence converts the greedy's counted work, incidences of
// its instance (Stats.Work), into the run time the cut predictor models.
// Predicting from counted rather than measured work keeps cut decisions a
// function of the input alone. BenchmarkStepGroup12's greedy-ns/incidence
// metric measures the rate: 46–52 ns on a 2-CPU Xeon container.
const greedyNsPerIncidence = 50 * time.Nanosecond

type chosenRec struct {
	seq int
	at  time.Time
}

// NewEngine builds an engine over the given filter group. For a group
// whose membership changes at run time, see NewDynamicEngine.
func NewEngine(filters []filter.Filter, opts Options) (*Engine, error) {
	return newEngine(filters, opts, false)
}

func newEngine(filters []filter.Filter, opts Options, allowEmpty bool) (*Engine, error) {
	opts, err := opts.validate()
	if err != nil {
		return nil, err
	}
	if len(filters) == 0 && !allowEmpty {
		return nil, fmt.Errorf("core: engine needs at least one filter")
	}
	slot := make(map[string]int, len(filters))
	for i, f := range filters {
		if f == nil {
			return nil, fmt.Errorf("core: nil filter")
		}
		if _, dup := slot[f.ID()]; dup {
			return nil, fmt.Errorf("core: duplicate filter id %q", f.ID())
		}
		slot[f.ID()] = i
	}
	cp := make([]filter.Filter, len(filters))
	copy(cp, filters)
	ids := make([]string, len(cp))
	for i, f := range cp {
		ids[i] = f.ID()
	}
	return &Engine{
		filters:        cp,
		opts:           opts,
		open:           make([][]*tuple.Tuple, len(cp)),
		slot:           slot,
		ids:            ids,
		delivered:      make([]int, len(cp)),
		predictor:      predict.NewRunTimePredictor(opts.PredictWindow, opts.PredictMargin),
		chosen:         make(map[int]time.Time),
		pruneAt:        minPruneReleased,
		maxReleasedSeq: -1,
		result:         Result{Stats: Stats{PerFilter: make(map[string]int)}},
	}, nil
}

// Step feeds the next stream tuple through the group. Source timestamps
// must be strictly increasing — region closure detection depends on it.
func (e *Engine) Step(t *tuple.Tuple) error {
	if e.finished {
		return fmt.Errorf("core: Step after Finish")
	}
	if e.started && !t.TS.After(e.lastTS) {
		return fmt.Errorf("core: tuple %d timestamp %v not after previous %v", t.Seq, t.TS, e.lastTS)
	}
	var start time.Time
	if !e.drain {
		start = clock()
	}
	e.now = t.TS

	// Stage one: every filter admits candidates (Fig 2.4). Under PS with
	// cuts, each filter first checks whether admitting the new tuple
	// would violate its time constraint and cuts beforehand (Fig 3.5:
	// "admitting a new tuple will likely violate the time constraint").
	for i, f := range e.filters {
		if e.opts.Cuts && e.opts.Algorithm == PS {
			if list := e.open[i]; len(list) > 0 && t.TS.Sub(list[0].TS) >= e.opts.MaxDelay {
				if err := e.cutFilter(i); err != nil {
					return err
				}
			}
		}
		ev, err := f.Process(t)
		if err != nil {
			return fmt.Errorf("core: filter %s: %w", f.ID(), err)
		}
		if err := e.apply(i, f, t, ev); err != nil {
			return err
		}
	}

	// Timely cuts for RG (Fig 3.3): test the group time constraint after
	// the group processed the tuple.
	if e.opts.Cuts && e.opts.Algorithm == RG {
		if err := e.maybeCut(); err != nil {
			return err
		}
	}

	// Stage two: emit regions that can no longer grow and decide their
	// outputs.
	if err := e.emitRegions(); err != nil {
		return err
	}

	// Release outputs decided this step (PerCandidateSet strategy).
	if len(e.stepBuf) > 0 {
		e.mergeRelease(e.stepBuf, e.now)
		e.stepBuf = clearPending(e.stepBuf)
	}

	// Batched output boundary.
	if e.opts.Strategy == Batched {
		e.batchCount++
		if e.batchCount >= e.opts.BatchSize {
			e.batchCount = 0
			e.releaseBatch()
		}
	}

	if len(e.releasedQ) >= e.pruneAt {
		e.pruneReleased()
	}
	e.started, e.lastTS = true, t.TS
	e.result.Stats.Inputs++
	e.result.Stats.Work.Process += len(e.filters)
	if !e.drain {
		e.result.Stats.CPU += clock().Sub(start)
	}
	return nil
}

// Finish flushes all open and pending state at end of stream and releases
// every remaining output.
func (e *Engine) Finish() error {
	if e.finished {
		return nil
	}
	var start time.Time
	if !e.drain {
		start = clock()
	}
	for i, f := range e.filters {
		cs, dismissed := f.Cut()
		e.applyDismissals(i, dismissed)
		if cs != nil {
			cs.Slot = i
			e.dropOpen(i, cs.Members)
			if err := e.handleClosed(f, cs); err != nil {
				return err
			}
		}
	}
	if err := e.handleRegions(e.tracker.Flush()); err != nil {
		return err
	}
	if len(e.stepBuf) > 0 {
		e.mergeRelease(e.stepBuf, e.now)
		e.stepBuf = clearPending(e.stepBuf)
	}
	e.releaseBatch()
	e.finished = true
	e.foldDelivered()
	if !e.drain {
		e.result.Stats.CPU += clock().Sub(start)
		e.result.Stats.Latencies = latencies(e.result.Transmissions, e.result.Stats.Deliveries, e.opts.MulticastDelay)
	}
	return nil
}

// Result returns the accumulated transmissions and statistics. Call after
// Finish for complete results. A drained engine's result holds the
// statistics' counters only. Stats.PerFilter is brought up to date by
// this call, by Finish and by membership changes; between them deliveries
// are counted by slot.
func (e *Engine) Result() *Result {
	e.foldDelivered()
	return &e.result
}

// Released returns the transmissions released since the previous call, in
// release order; the shard runtime forwards them to its sink after every
// call into the engine. On a retaining engine the slice is a window of
// Result().Transmissions. On a drained engine it is the engine's release
// buffer, valid until the next call into the engine — the caller copies
// what it keeps.
func (e *Engine) Released() []Transmission {
	if e.drain {
		e.recycleOut()
		e.outTaken = len(e.out) > 0
		return e.out
	}
	trs := e.result.Transmissions[e.handed:]
	e.handed = len(e.result.Transmissions)
	return trs
}

// recycleOut empties a drained engine's release buffer once Released has
// handed its contents over, so the reused array pins no tuple.
func (e *Engine) recycleOut() {
	if e.outTaken {
		clear(e.out)
		e.out, e.outTaken = e.out[:0], false
	}
}

// Run drives a complete series through a fresh engine.
func Run(filters []filter.Filter, sr *tuple.Series, opts Options) (*Result, error) {
	e, err := NewEngine(filters, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sr.Len(); i++ {
		if err := e.Step(sr.At(i)); err != nil {
			return nil, err
		}
	}
	if err := e.Finish(); err != nil {
		return nil, err
	}
	return e.Result(), nil
}

// apply folds one filter event into the global state, following stateful
// decision loops to completion. i is the filter's slot.
func (e *Engine) apply(i int, f filter.Filter, t *tuple.Tuple, ev filter.Event) error {
	for {
		if ev.Admitted {
			e.util.inc(t.Seq)
			e.open[i] = append(e.open[i], t)
		}
		e.applyDismissals(i, ev.Dismissed)
		if ev.Closed == nil {
			return nil
		}
		cs := ev.Closed
		cs.Slot = i
		e.dropOpen(i, cs.Members)
		if !f.Stateful() {
			return e.handleClosed(f, cs)
		}
		// Stateful sets are decided immediately (§2.3.3); the filter
		// rebases and may re-admit the closing tuple.
		picks := e.decideSet(cs)
		e.stageDecided(cs, picks)
		e.tracker.Add(cs)
		ev = f.ObserveChosen(picks)
	}
}

// handleClosed routes a freshly closed candidate set: PS decides it now;
// RG leaves it for the region greedy. Stateful sets never reach here.
func (e *Engine) handleClosed(f filter.Filter, cs *filter.CandidateSet) error {
	if f.Stateful() {
		// Reached only from cuts and Finish, where no tuple is pending
		// inside the filter: ObserveChosen just rebases.
		picks := e.decideSet(cs)
		e.stageDecided(cs, picks)
		e.tracker.Add(cs)
		if ev := f.ObserveChosen(picks); ev.Admitted || ev.Closed != nil || len(ev.Dismissed) > 0 {
			return fmt.Errorf("core: filter %s produced events while rebasing after a cut", f.ID())
		}
		return nil
	}
	if e.opts.Algorithm == PS {
		picks := e.decideSet(cs)
		e.stageDecided(cs, picks)
	}
	e.tracker.Add(cs)
	return nil
}

// applyDismissals decrements utilities and open tracking for dismissed
// tuples.
func (e *Engine) applyDismissals(i int, dismissed []*tuple.Tuple) {
	if len(dismissed) == 0 {
		return
	}
	for _, d := range dismissed {
		e.util.dec(d.Seq)
	}
	e.dropOpen(i, dismissed)
}

// dropOpen removes tuples from the open tracking of the filter at slot i.
// What a filter dismisses or closes is an in-order subsequence of what it
// admitted — members and tentative buffers are kept in arrival order — so
// one two-pointer pass compacts the list in place.
func (e *Engine) dropOpen(i int, drop []*tuple.Tuple) {
	list := e.open[i]
	keep := list[:0]
	for _, t := range list {
		if len(drop) > 0 && drop[0].Seq == t.Seq {
			drop = drop[1:]
			continue
		}
		keep = append(keep, t)
	}
	clear(list[len(keep):])
	e.open[i] = keep
}

// openMins returns the earliest admitted timestamp of each filter's open
// set. The returned slice is engine-owned scratch, valid until the next
// call.
func (e *Engine) openMins() []time.Time {
	mins := e.minsBuf[:0]
	for i := range e.filters {
		if list := e.open[i]; len(list) > 0 {
			mins = append(mins, list[0].TS)
		}
	}
	e.minsBuf = mins
	return mins
}

// emitRegions extracts final regions and decides/releases their outputs.
func (e *Engine) emitRegions() error {
	if e.tracker.PendingSets() == 0 {
		return nil
	}
	return e.handleRegions(e.tracker.Ready(e.openMins(), e.now))
}

// handleRegions handles extracted regions in order. The regions are the
// tracker's scratch; nothing below calls back into the tracker.
func (e *Engine) handleRegions(regions []region.Region) error {
	for i := range regions {
		if err := e.handleRegion(&regions[i]); err != nil {
			return err
		}
	}
	return nil
}

// handleRegion decides (RG) and/or releases (per strategy) a closed
// region's outputs, then recycles the region's sets.
func (e *Engine) handleRegion(r *region.Region) error {
	st := &e.result.Stats
	st.Regions++
	if r.ClosedByCut() {
		st.RegionsCut++
	}
	size := r.TupleCount()
	st.RegionTupleSum += size

	// Outputs of sets decided before the region closed were released at
	// decision time, except under EarliestRegion, which holds them until
	// now. The buffers are engine-owned scratch; their contents are copied
	// on release.
	held := e.heldOuts[:0]
	decided := 0
	for _, cs := range r.Sets {
		if !cs.Decided {
			continue
		}
		decided++
		if e.opts.Strategy == EarliestRegion {
			owners := e.ownerBit(cs)
			for _, p := range cs.Picks {
				held = append(held, pendingOut{t: p, dest: cs.Owner, owners: owners})
			}
		}
	}
	sortPending(held)

	// Undecided sets (RG stateless) are decided by the greedy hitting
	// set; already-decided sets join as singleton proxies so sharing
	// with their chosen tuples is considered (§2.3.3).
	var err error
	outs := held
	if decided < len(r.Sets) {
		outs, err = e.decideRegion(r, size, decided, held)
		e.regionOuts = outs
	}
	if err == nil {
		switch e.opts.Strategy {
		case Batched:
			e.batchBuf = append(e.batchBuf, outs...)
		default:
			e.mergeRelease(outs, e.now)
		}
		if e.opts.EmitPunctuations && !e.drain {
			_, max := r.Cover()
			e.result.Punctuations = append(e.result.Punctuations, Punctuation{At: e.now, Horizon: max})
		}
		for _, cs := range r.Sets {
			cs.Recycle()
		}
	}
	clear(outs)
	clear(held)
	e.regionOuts, e.heldOuts = e.regionOuts[:0], held[:0]
	return err
}

// decideRegion runs the greedy hitting set over a region with undecided
// sets and stages one output per pick that serves any of them, merged in
// sequence order with held, the region's sorted decided outputs (which go
// first among outputs of one tuple). decided is the number of already
// decided sets in the region.
func (e *Engine) decideRegion(r *region.Region, size, decided int, held []pendingOut) ([]pendingOut, error) {
	// The proxies are sized first: the greedy input points into them.
	if cap(e.proxies) < decided {
		e.proxies = make([]filter.CandidateSet, decided)
	}
	proxies := e.proxies[:0]
	greedySets := e.greedyBuf[:0]
	for _, cs := range r.Sets {
		if cs.Decided {
			proxies = append(proxies, filter.CandidateSet{
				Owner:      cs.Owner,
				Ordinal:    cs.Ordinal,
				Members:    cs.Picks,
				PickDegree: len(cs.Picks),
				Decided:    true,
			})
			cs = &proxies[len(proxies)-1]
		}
		greedySets = append(greedySets, cs)
	}
	outs := e.regionOuts[:0]
	var start time.Time
	if !e.drain {
		start = clock()
	}
	picks, err := e.solver.Greedy(greedySets, e.opts.Ties == PreferEarliest)
	if err != nil {
		err = fmt.Errorf("core: deciding region: %w", err)
	} else {
		st := &e.result.Stats
		if !e.drain {
			st.GreedyCPU += clock().Sub(start)
		}
		work := e.solver.Incidences()
		st.Work.Incidences += work
		st.Work.Picks += len(picks)
		if e.opts.Cuts && e.opts.Algorithm == RG {
			e.predictor.Observe(size, time.Duration(work)*greedyNsPerIncidence)
		}
		for _, cs := range r.Sets {
			if !cs.Decided && !cs.Accounted {
				for _, m := range cs.Members {
					e.util.dec(m.Seq)
				}
			}
		}
		// The picks in arrival order, which is sequence order within a
		// source; mergeRelease sorts whatever is not.
		for _, pk := range e.solver.InOrder() {
			// A pick's destinations are the owners of the undecided sets
			// it was credited to.
			dests, owners := e.pickDests(pk.Sets)
			if dests == nil {
				continue
			}
			for len(held) > 0 && held[0].t.Seq <= pk.Tuple.Seq {
				outs, held = append(outs, held[0]), held[1:]
			}
			outs = append(outs, pendingOut{t: pk.Tuple, dests: dests, owners: owners})
		}
		outs = append(outs, held...)
	}
	// The picks are read; drop the greedy input so the scratch pins no set
	// or tuple.
	clear(proxies)
	clear(greedySets)
	e.greedyBuf = greedySets[:0]
	return outs, err
}

// releaseBatch releases the batched output buffer.
func (e *Engine) releaseBatch() {
	if len(e.batchBuf) == 0 {
		return
	}
	e.mergeRelease(e.batchBuf, e.now)
	e.batchBuf = clearPending(e.batchBuf)
}

// decideSet chooses outputs for one candidate set with the PS heuristics
// (Fig 2.10): prefer tuples already chosen by other filters, then the
// highest group utility, ties broken toward the more recent tuple. It
// removes the set's utility contribution and records the choices in the
// group state.
func (e *Engine) decideSet(cs *filter.CandidateSet) []*tuple.Tuple {
	eligible := cs.Eligible()
	k := cs.PickDegree
	if k <= 0 {
		k = 1
	}
	if k > len(eligible) {
		k = len(eligible)
	}
	picks := cs.Picks[:0]
	for len(picks) < k {
		var best *tuple.Tuple
		// Heuristic 1: a tuple already chosen by another filter.
		for _, m := range eligible {
			if picked(picks, m.Seq) {
				continue
			}
			if _, ok := e.chosen[m.Seq]; !ok {
				continue
			}
			if e.prefer(m, best) {
				best = m
			}
		}
		// Heuristic 2: the highest group utility.
		if best == nil {
			bestU := -1
			for _, m := range eligible {
				if picked(picks, m.Seq) {
					continue
				}
				u := e.util.get(m.Seq)
				if u > bestU || (u == bestU && e.prefer(m, best)) {
					best, bestU = m, u
				}
			}
		}
		if best == nil {
			break
		}
		picks = append(picks, best)
	}
	if !cs.Accounted {
		for _, m := range cs.Members {
			e.util.dec(m.Seq)
		}
		cs.Accounted = true
	}
	for _, p := range picks {
		e.recordChosen(p)
	}
	return picks
}

// picked reports whether the seq is already among the picks; pick degrees
// are tiny, so a linear scan beats a per-set map.
func picked(picks []*tuple.Tuple, seq int) bool {
	for _, p := range picks {
		if p.Seq == seq {
			return true
		}
	}
	return false
}

// prefer reports whether m beats best under the engine's tie-break rule;
// a nil best always loses.
func (e *Engine) prefer(m, best *tuple.Tuple) bool {
	if best == nil {
		return true
	}
	if e.opts.Ties == PreferEarliest {
		return m.TS.Before(best.TS) || (m.TS.Equal(best.TS) && m.Seq < best.Seq)
	}
	return m.TS.After(best.TS) || (m.TS.Equal(best.TS) && m.Seq > best.Seq)
}

// stageDecided records a decided set's picks on the set, for region-time
// proxying, and routes them per the output strategy. EarliestRegion stages
// nothing here: the picks wait on the set until its region closes.
func (e *Engine) stageDecided(cs *filter.CandidateSet, picks []*tuple.Tuple) {
	cs.Decided, cs.Picks = true, picks
	switch e.opts.Strategy {
	case PerCandidateSet:
		owners := e.ownerBit(cs)
		for _, p := range picks {
			e.stepBuf = append(e.stepBuf, pendingOut{t: p, dest: cs.Owner, owners: owners})
		}
	case Batched:
		owners := e.ownerBit(cs)
		for _, p := range picks {
			e.batchBuf = append(e.batchBuf, pendingOut{t: p, dest: cs.Owner, owners: owners})
		}
	}
}

// recordChosen adds a pick to the PS chosen-tuple memory and prunes
// entries beyond the horizon. chosenQ is a head-indexed queue compacted in
// place so pruning does not abandon its backing array.
func (e *Engine) recordChosen(t *tuple.Tuple) {
	e.chosen[t.Seq] = e.now
	e.chosenQ = append(e.chosenQ, chosenRec{seq: t.Seq, at: e.now})
	cutoff := e.now.Add(-e.opts.ChosenHorizon)
	for e.chosenHead < len(e.chosenQ) && e.chosenQ[e.chosenHead].at.Before(cutoff) {
		rec := e.chosenQ[e.chosenHead]
		e.chosenHead++
		if at, ok := e.chosen[rec.seq]; ok && !at.After(rec.at) {
			delete(e.chosen, rec.seq)
		}
	}
	if e.chosenHead >= 1024 && e.chosenHead > len(e.chosenQ)-e.chosenHead {
		n := copy(e.chosenQ, e.chosenQ[e.chosenHead:])
		e.chosenQ, e.chosenHead = e.chosenQ[:n], 0
	}
}

// maybeCut tests the RG group time constraint and force-closes all open
// sets when it is about to be violated (Fig 3.3). PS cuts are handled
// per-filter before each Process call in Step.
func (e *Engine) maybeCut() error {
	// Region-based cuts: elapsed region span plus the predicted greedy
	// run time for one more tuple must stay within the budget.
	oldest, ok := e.oldestActive()
	if !ok {
		return nil
	}
	size := e.activeTupleCount()
	predicted := e.predictor.Predict(size + 1)
	if e.now.Sub(oldest)+predicted < e.opts.MaxDelay {
		return nil
	}
	for i := range e.filters {
		if err := e.cutFilter(i); err != nil {
			return err
		}
	}
	return nil
}

// cutFilter force-closes the open candidate set of the filter at slot i.
func (e *Engine) cutFilter(i int) error {
	f := e.filters[i]
	cs, dismissed := f.Cut()
	e.applyDismissals(i, dismissed)
	if cs == nil {
		return nil
	}
	cs.Slot = i
	e.dropOpen(i, cs.Members)
	return e.handleClosed(f, cs)
}

// oldestActive returns the earliest timestamp across pending closed sets
// and open admissions — the start of the current region span.
func (e *Engine) oldestActive() (time.Time, bool) {
	oldest, ok := e.tracker.EarliestPending()
	for i := range e.filters {
		if list := e.open[i]; len(list) > 0 {
			if !ok || list[0].TS.Before(oldest) {
				oldest, ok = list[0].TS, true
			}
		}
	}
	return oldest, ok
}

// activeTupleCount approximates the size of the accumulating region: open
// admissions plus pending closed-set members (distinct per filter, may
// overlap across filters; the predictor only needs a consistent scale).
func (e *Engine) activeTupleCount() int {
	n := 0
	for i := range e.filters {
		n += len(e.open[i])
	}
	n += e.tracker.PendingSets()
	return n
}
