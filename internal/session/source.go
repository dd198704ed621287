package session

import (
	"errors"
	"fmt"
	"slices"

	"gasf/internal/core"
	"gasf/internal/flowgap"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// Source is one open publisher session. The adapter allocates it (the
// TCP server embeds it in a pooled session record, which is why it stays
// small), fills Name, Schema and Owner, and registers it with OpenSource.
type Source[T any] struct {
	Name   string
	Schema *tuple.Schema
	// Owner is the adapter's handle for the session; the core hands it
	// back on expiry and never looks inside.
	Owner any
	// Gap is the session's liveness entry in the flow-gap wheel: the
	// adapter touches it when the source shows life and holds its busy
	// flag across anything that parks the source inside the runtime, so
	// backpressure is never mistaken for silence.
	Gap flowgap.Entry
	// Lat estimates the source group's delivery-latency quantiles; the
	// adapter feeds it at its delivery point. A fresh pair per OpenSource
	// (queued items may retain the pointer past the session's end); nil
	// when telemetry is disabled.
	Lat *telemetry.LatencyPair

	// The fan-out view of the last Route call, owned by the source's
	// shard worker (sink calls for one source are serialized): the live
	// members a released transmission goes to, their labels in the
	// engine's sorted destination order, and the membership epoch both
	// were derived under — the key for Enc, whose memoized destination
	// prefix therefore never survives a membership change. Scratch is the
	// worker's encode buffer for adapters that log without framing.
	Epoch   uint64
	Targets []*Member[T]
	Labels  []string
	Enc     wire.TransmissionEncoder
	Scratch []byte

	// inDests is the engine destination list the view was computed for.
	inDests []string
	// subEpoch counts membership changes for this source; written under
	// Core.mu, read under its read side.
	subEpoch uint64
	finished bool
}

// OpenSource registers src as a live source with a fresh dynamic engine:
// tuples may be submitted to the runtime and members may join as soon as
// it returns. Every core-owned field is reset, so a recycled Source never
// carries a previous generation's members or encoder state.
func (c *Core[T]) OpenSource(src *Source[T]) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.sources[src.Name] != nil {
		return fmt.Errorf("source %q already open", src.Name)
	}
	newEngine := core.NewDrainedEngine
	if c.cfg.KeepResults {
		newEngine = core.NewDynamicEngine
	}
	engine, err := newEngine(c.cfg.Engine)
	if err != nil {
		return err
	}
	if err := c.rt.AddSourceLive(src.Name, engine); err != nil {
		return err
	}
	src.Gap.Reset()
	src.Lat = nil
	if c.tel != nil {
		src.Lat = telemetry.NewLatencyPair()
	}
	clear(src.Targets) // stale members must not be pinned by a pooled session
	src.Epoch, src.Targets, src.Labels = 0, src.Targets[:0], src.Labels[:0]
	src.Enc = wire.TransmissionEncoder{}
	src.inDests, src.subEpoch, src.finished = nil, 0, false
	c.sources[src.Name] = src
	c.wheel.Add(&src.Gap, src)
	return nil
}

// FinishSource ends a source's stream: the engine's Finish runs on the
// owning shard, its tail is flushed through the sink, and then — no
// further flush can reach them — the members' streams end. With release
// set the name is freed for reuse first (the runtime forgets it, dropping
// the engine result, before the registry does: a publisher reopening the
// name sees either the old session — rejected, retryable — or a clean
// slate, never a half-freed name whose OpenSource would fail); otherwise
// the finished source keeps its name and its result. clean is the
// wheel's verdict on recycling src: false means an expiry pass holds it
// and its callback may still be running.
func (c *Core[T]) FinishSource(src *Source[T], release bool) (clean bool, err error) {
	clean = c.wheel.Remove(&src.Gap)
	c.mu.Lock()
	src.finished = true
	c.mu.Unlock()
	err = c.rt.FinishSourceWait(src.Name)
	if release {
		err = errors.Join(err, c.rt.RemoveSource(src.Name))
	}
	c.mu.Lock()
	if release && c.sources[src.Name] == src {
		delete(c.sources, src.Name)
	}
	members := c.members[src.Name]
	delete(c.members, src.Name)
	c.mu.Unlock()
	for _, m := range members {
		m.EndStream()
	}
	return clean, err
}

// Route resolves a released transmission's engine-decided destination
// list to the source's fan-out view (Targets, Labels, Epoch), recomputing
// it only when the membership epoch or the destination pattern changed.
// It returns nil when the source is gone; Targets is empty when every
// addressee already left (outputs the group still owed them decide after
// the leave and go nowhere). Call it only from the source's shard worker.
func (c *Core[T]) Route(source string, dests []string) *Source[T] {
	c.mu.RLock()
	src := c.sources[source]
	if src != nil && (src.Epoch != src.subEpoch || !slices.Equal(src.inDests, dests)) {
		src.Epoch, src.inDests = src.subEpoch, dests
		src.Targets = src.Targets[:0]
		members := c.members[source]
		for _, app := range dests {
			if m := members[app]; m != nil && m.active {
				src.Targets = append(src.Targets, m)
			}
		}
		switch {
		case !c.cfg.ShareLabels:
			src.Labels = appendLabels(src.Labels[:0], src.Targets)
		case len(src.Targets) == len(dests):
			// Nothing pruned: queued items may share the engine's list,
			// which is immutable.
			src.Labels = dests
		default:
			// Queued items alias the old slice; a pruned view is new.
			src.Labels = appendLabels(make([]string, 0, len(src.Targets)), src.Targets)
		}
	}
	c.mu.RUnlock()
	return src
}

// appendLabels appends the targets' labels, in the targets' order, to
// labels.
func appendLabels[T any](labels []string, targets []*Member[T]) []string {
	for _, m := range targets {
		labels = append(labels, m.App)
	}
	return labels
}

// AppendLog appends one fanned-out transmission (its wire form, labels
// pruned to the live targets — exactly the bytes a networked member
// receives, so replays are byte-equivalent across transports) to the
// source's durable log and returns its offset. The sink calls it before
// handing the transmission to any queue: a delivery can never report an
// offset the log does not hold. A failure degrades durability, not
// delivery: it is counted and the transmission proceeds with offset 0.
func (c *Core[T]) AppendLog(source string, payload []byte) (uint64, error) {
	off, err := c.log.Append(source, payload)
	if err != nil {
		c.logAppendErrs.Add(1)
		return 0, err
	}
	return off, nil
}
