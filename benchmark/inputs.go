package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/quality"
	"gasf/internal/tuple"
)

// sourceInput is one publisher's tuples and subscriptions, plus — after
// reference() — the exact stream each of its sessions must receive.
type sourceInput struct {
	name   string
	schema *tuple.Schema
	tuples []*tuple.Tuple
	subs   []subPlan

	// round[i] is the stream subs[i]'s session(s) must receive in a
	// closed-loop round: what the round's tuples release, then Finish.
	// first[i] is their stream in the last round, which goes on into the
	// open-loop phase; resumed[i] (durable workload only) that of the
	// session re-subscribed with WithResumeFrom(0) after the closed loop.
	round, first, resumed []*expectation
	// roundTransmissions and transmissions are how many transmissions the
	// reference engine released over a round and over the last round's
	// whole stream — the numerator of the O/I ratio.
	roundTransmissions, transmissions int
}

// expectation is the stream one session must receive, in order.
type expectation struct {
	seq []int32
	// rel is the index of the input tuple whose Step released the
	// delivery, or -1 when Finish or a membership change released it.
	rel    []int32
	off    []uint64 // durable log offsets (durable workload only)
	digest uint64   // fold over (seq, ts, values, labels) of the stream
	// The stream tiles into: replay (resumed sessions: history re-read
	// from the log), then deliveries released by the closed-loop tuples
	// (up to sat), then the open-loop phase (up to live; a round has
	// none), then the Finish tail.
	replay, sat, live int
	// stop, when positive, is where the session stops receiving because
	// the benchmark is about to close it (the durable workload's leave).
	stop int
}

func (x *expectation) add(t *tuple.Tuple, labels []string, rel int32, off uint64) {
	x.seq = append(x.seq, int32(t.Seq))
	x.rel = append(x.rel, rel)
	x.off = append(x.off, off)
	x.digest = fold(x.digest, t, labels)
}

func (x *expectation) clone() *expectation {
	c := *x
	c.seq, c.rel, c.off = slices.Clone(x.seq), slices.Clone(x.rel), slices.Clone(x.off)
	return &c
}

// fold mixes one delivery into a stream digest (FNV-1a over 64-bit
// words). The reference and the receivers share it, so equal digests
// mean equal (seq, timestamp, values, labels) streams.
func fold(h uint64, t *tuple.Tuple, labels []string) uint64 {
	const prime = 1099511628211
	mix := func(x uint64) { h = (h ^ x) * prime }
	if h == 0 {
		h = 14695981039346656037
	}
	mix(uint64(t.Seq))
	mix(uint64(t.TS.UnixNano()))
	for _, v := range t.Values {
		mix(math.Float64bits(v))
	}
	for _, l := range labels {
		mix(uint64(len(l)))
		for i := 0; i < len(l); i++ {
			mix(uint64(l[i]))
		}
	}
	return h
}

// inputs is everything one run feeds the system, made from the seed.
type inputs struct {
	w       *workload
	sz      sizes
	sources []*sourceInput
	// referenceS is how long generating the inputs and computing the
	// sequential reference took.
	referenceS float64
}

// makeInputs generates the workload's tuples from the seed and computes
// the sequential reference every session is checked against.
func makeInputs(w *workload, seed int64, sz sizes) (*inputs, error) {
	start := time.Now()
	sources, err := w.build(seed, sz.perSource())
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	// One sequential engine per source and pass; all are independent. A
	// round and the last round's longer stream are two passes over the
	// same closed-loop tuples.
	errs := make([]error, 2*len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(2)
		go func() {
			defer wg.Done()
			src.round, _, src.roundTransmissions, errs[2*i] = reference(src, sz, false, false)
		}()
		go func() {
			defer wg.Done()
			src.first, src.resumed, src.transmissions, errs[2*i+1] = reference(src, sz, true, w.kind == kindDurable)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: reference for %s: %w", w.name, sources[i/2].name, err)
		}
	}
	return &inputs{w: w, sz: sz, sources: sources, referenceS: time.Since(start).Seconds()}, nil
}

// buildGroup instantiates the source's group the way the broker does:
// one fresh filter per application, identified by the app name.
func buildGroup(src *sourceInput) ([]filter.Filter, error) {
	group := make([]filter.Filter, len(src.subs))
	for i, p := range src.subs {
		sp, err := quality.Parse(p.spec)
		if err != nil {
			return nil, err
		}
		if group[i], err = sp.Build(p.app); err != nil {
			return nil, err
		}
	}
	return group, nil
}

// reference steps the source's tuples through one sequential engine with
// default options — what core.Run does — recording for every session the
// deliveries it must see and which input tuple's Step released each. It
// returns the sessions' streams, those of the resumed sessions, and the
// number of transmissions released.
//
// Without live the stream is one closed-loop round: the closed-loop
// tuples, then Finish. With live the open-loop tuples follow first.
//
// With resume it mirrors the durable workload's script: after the
// closed-loop tuples every application leaves in order (a leave's own
// flush is logged with the leaver's label but not delivered to it) and
// re-joins at the same tuple boundary, first replaying every logged
// record that names it.
func reference(src *sourceInput, sz sizes, live, resume bool) (first, resumed []*expectation, transmissions int, err error) {
	e, err := core.NewDynamicEngine(core.Options{})
	if err != nil {
		return nil, nil, 0, err
	}
	group, err := buildGroup(src)
	if err != nil {
		return nil, nil, 0, err
	}
	n := len(src.subs)
	var (
		registered = make(map[string]int, n) // app -> sub index, while it holds a registry entry
		receiving  = make([]*expectation, n) // the stream deliveries currently land in; nil while away
		logged     = make([]*expectation, n) // every logged record naming the app
		nextOff    uint64
		taken      int
		labels     []string
	)
	first = make([]*expectation, n)
	resumed = make([]*expectation, n)
	for i, p := range src.subs {
		if err := e.AddFilter(group[i]); err != nil {
			return nil, nil, 0, err
		}
		registered[p.app] = i
		first[i] = &expectation{}
		receiving[i] = first[i]
		logged[i] = &expectation{}
	}
	// collect consumes the transmissions released since the last call.
	// Labels are pruned to the registered applications, and a
	// transmission naming none of them is neither logged nor delivered —
	// the broker's fan-out rule.
	collect := func(rel int32) {
		trs := e.Result().Transmissions
		for ; taken < len(trs); taken++ {
			tr := trs[taken]
			labels = labels[:0]
			for _, app := range tr.Destinations {
				if _, ok := registered[app]; ok {
					labels = append(labels, app)
				}
			}
			if len(labels) == 0 {
				continue
			}
			for _, app := range labels {
				i := registered[app]
				logged[i].add(tr.Tuple, labels, rel, nextOff)
				if receiving[i] != nil {
					receiving[i].add(tr.Tuple, labels, rel, nextOff)
				}
			}
			nextOff++
		}
	}
	step := func(from, to int) error {
		for i := from; i < to; i++ {
			if err := e.Step(src.tuples[i]); err != nil {
				return err
			}
			collect(int32(i))
		}
		return nil
	}

	if err := step(0, sz.satN); err != nil {
		return nil, nil, 0, err
	}
	for _, x := range first {
		x.sat = len(x.seq)
	}
	if resume {
		for i, p := range src.subs {
			x := receiving[i]
			x.live, x.stop = len(x.seq), len(x.seq)
			receiving[i] = nil
			if err := e.RemoveFilter(p.app); err != nil {
				return nil, nil, 0, err
			}
			collect(-1)
			delete(registered, p.app)
		}
		if group, err = buildGroup(src); err != nil {
			return nil, nil, 0, err
		}
		for i, p := range src.subs {
			if err := e.AddFilter(group[i]); err != nil {
				return nil, nil, 0, err
			}
			registered[p.app] = i
			x := logged[i].clone()
			x.replay, x.sat = len(x.seq), len(x.seq)
			resumed[i], receiving[i] = x, x
		}
	}
	if live {
		if err := step(sz.satN, len(src.tuples)); err != nil {
			return nil, nil, 0, err
		}
	}
	for _, x := range receiving {
		x.live = len(x.seq)
	}
	if err := e.Finish(); err != nil {
		return nil, nil, 0, err
	}
	collect(-1)
	return first, resumed, len(e.Result().Transmissions), nil
}
