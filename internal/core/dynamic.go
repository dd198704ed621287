package core

import (
	"fmt"

	"gasf/internal/filter"
)

// Dynamic group membership: subscriptions may join and leave a live engine
// at a tuple boundary (between two Step calls, or before the first). The
// networked server uses this to re-derive the group when an application
// subscribes or unsubscribes mid-stream (§4.3) without restarting the
// source's engine or disturbing other sources.
//
// An engine whose membership never changes behaves identically whether it
// was built with NewEngine(filters, opts) or with NewDynamicEngine(opts)
// followed by AddFilter calls in the same order — the dynamic-membership
// equivalence tests assert byte-identical released output.

// NewDynamicEngine builds an engine with an initially empty filter group,
// for workloads where subscriptions arrive after the stream is live. An
// empty engine consumes tuples without admitting any candidates (and
// therefore releases nothing) until the first AddFilter.
func NewDynamicEngine(opts Options) (*Engine, error) {
	return newEngine(nil, opts, true)
}

// NewDrainedEngine is NewDynamicEngine for a caller that takes every
// released transmission with Released and needs no history — a broker
// whose sink has already delivered it. The engine decides and releases
// exactly what a retaining engine would and keeps the counters of Stats
// exact, but holds on to nothing per transmission: Result().Transmissions
// and Result().Punctuations stay empty, and so does Stats.Latencies, which
// a retaining engine derives from its transmissions in Finish. Its memory
// follows the open regions, not the length of the stream.
func NewDrainedEngine(opts Options) (*Engine, error) {
	e, err := newEngine(nil, opts, true)
	if err != nil {
		return nil, err
	}
	e.drain = true
	return e, nil
}

// AddFilter joins a filter to the live group at a tuple boundary. The
// filter starts with no open state and sees only tuples fed after the
// call; the tuples already streamed are not replayed. Filter IDs must stay
// unique within the group (an application that left may rejoin under the
// same ID).
func (e *Engine) AddFilter(f filter.Filter) error {
	if f == nil {
		return fmt.Errorf("core: nil filter")
	}
	if e.finished {
		return fmt.Errorf("core: AddFilter after Finish")
	}
	if _, dup := e.slot[f.ID()]; dup {
		return fmt.Errorf("core: duplicate filter id %q", f.ID())
	}
	e.slot[f.ID()] = len(e.filters)
	e.filters = append(e.filters, f)
	e.ids = append(e.ids, f.ID())
	e.delivered = append(e.delivered, 0)
	e.open = append(e.open, nil)
	e.membershipChanged()
	return nil
}

// RemoveFilter detaches the identified filter from the live group at a
// tuple boundary. Its open candidate set is force-closed through the
// normal cut path, so outputs the group already owes the departed
// application are still decided and released (the dissemination layer is
// free to drop deliveries addressed to a subscriber that is gone), and
// regions the departed filter was holding open are re-tested for closure
// immediately.
func (e *Engine) RemoveFilter(id string) error {
	if e.finished {
		return fmt.Errorf("core: RemoveFilter after Finish")
	}
	idx, ok := e.slot[id]
	if !ok {
		return fmt.Errorf("core: no filter %q in the group", id)
	}
	// Cut while the slot is still live, so the cut path can update the
	// departing filter's open tracking through the normal machinery.
	if err := e.cutFilter(idx); err != nil {
		return err
	}
	e.foldDelivered()
	e.filters = append(e.filters[:idx], e.filters[idx+1:]...)
	e.ids = append(e.ids[:idx], e.ids[idx+1:]...)
	e.delivered = e.delivered[:len(e.filters)]
	e.open = append(e.open[:idx], e.open[idx+1:]...)
	delete(e.slot, id)
	for i := idx; i < len(e.filters); i++ {
		e.slot[e.ids[i]] = i
	}
	e.membershipChanged()
	if !e.started {
		return nil
	}
	// The departed filter's open set may have been the only thing keeping
	// the current region extendable; close and release what it unblocked,
	// exactly as the tail of Step would.
	if err := e.emitRegions(); err != nil {
		return err
	}
	if len(e.stepBuf) > 0 {
		e.mergeRelease(e.stepBuf, e.now)
		e.stepBuf = clearPending(e.stepBuf)
	}
	return nil
}

// membershipChanged drops what was keyed by the old slots: the canonical
// destination lists and the bitsets of the outputs still staged.
func (e *Engine) membershipChanged() {
	clear(e.destLists)
	forgetOwners(e.stepBuf)
	forgetOwners(e.batchBuf)
}

// FilterIDs returns the IDs of the current group members, in group order.
func (e *Engine) FilterIDs() []string {
	ids := make([]string, len(e.filters))
	for i, f := range e.filters {
		ids[i] = f.ID()
	}
	return ids
}
