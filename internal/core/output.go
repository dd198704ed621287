package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"time"

	"gasf/internal/tuple"
)

// Transmission is one multicast send: a tuple, the applications that must
// receive it, and the (virtual) time it was released to the multicaster.
// The multicast protocol labels each tuple with its destination list so it
// crosses any network link at most once (§1.2).
type Transmission struct {
	Tuple *tuple.Tuple
	// Destinations is sorted and read-only: transmissions with the same
	// destinations share one list (dests.go), and a consumer may keep it
	// but never write to it.
	Destinations []string
	ReleasedAt   time.Time
}

// Punctuation is a control marker mixed into the output stream (§3.4):
// after a punctuation is released, no further output will carry a source
// timestamp at or before Horizon. Downstream operators use punctuations to
// bound reordering when outputs are released per candidate set.
type Punctuation struct {
	// At is the release time of the punctuation (region closure).
	At time.Time
	// Horizon is the end of the closed region's time cover.
	Horizon time.Time
}

// Stats aggregates the metrics of one engine run (§4.4).
type Stats struct {
	// Inputs is the number of tuples consumed.
	Inputs int
	// DistinctOutputs is the size of the union of all chosen outputs —
	// the numerator of the O/I ratio.
	DistinctOutputs int
	// Transmissions counts multicast send events.
	Transmissions int
	// Deliveries counts (tuple, destination) pairs delivered.
	Deliveries int
	// PerFilter counts deliveries per filter/application ID.
	PerFilter map[string]int
	// Regions counts closed regions; RegionsCut counts those closed (in
	// part) by a timely cut (Fig 4.11).
	Regions, RegionsCut int
	// RegionTupleSum accumulates region sizes in tuples, for average
	// region size diagnostics.
	RegionTupleSum int
	// MultiplexDisorder counts transmissions whose tuple precedes (by
	// sequence) an already-released tuple — the disorder that eager
	// output strategies introduce in the multiplexed stream (§3.4).
	MultiplexDisorder int
	// Work counts what the engine did; every engine keeps it, and the cut
	// predictor reads it.
	Work Work

	// The statistics below are a retaining engine's: a drained engine
	// (NewDrainedEngine) reads no clock and keeps no history, so they stay
	// zero or empty there.

	// CPU is the measured wall time of the engine's per-tuple
	// processing; GreedyCPU is the share spent in hitting-set decisions
	// (stage two).
	CPU, GreedyCPU time.Duration
	// Latencies holds one source-to-release latency sample per delivery
	// (including the MulticastDelay constant), in release order. It is
	// filled by Finish from Result.Transmissions; before Finish it is
	// empty.
	Latencies []time.Duration
}

// Work counts an engine's work in units that do not depend on the machine
// or its load: two runs over the same input count the same.
type Work struct {
	// Process counts filter Process calls, one per filter per input.
	Process int
	// Incidences counts the (set, eligible member) pairs of the regions
	// the greedy decided, the size of its instances.
	Incidences int
	// Picks counts the greedy's picks.
	Picks int
}

// OIRatio returns output/input: distinct output tuples over input tuples.
func (s *Stats) OIRatio() float64 {
	if s.Inputs == 0 {
		return 0
	}
	return float64(s.DistinctOutputs) / float64(s.Inputs)
}

// CPUPerTuple returns mean processing time per input tuple.
func (s *Stats) CPUPerTuple() time.Duration {
	if s.Inputs == 0 {
		return 0
	}
	return s.CPU / time.Duration(s.Inputs)
}

// MeanLatency returns the mean delivery latency.
func (s *Stats) MeanLatency() time.Duration {
	if len(s.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range s.Latencies {
		sum += l
	}
	return sum / time.Duration(len(s.Latencies))
}

// MeanRegionTuples returns the average region size in tuples.
func (s *Stats) MeanRegionTuples() float64 {
	if s.Regions == 0 {
		return 0
	}
	return float64(s.RegionTupleSum) / float64(s.Regions)
}

// Result is the outcome of a complete run.
type Result struct {
	Transmissions []Transmission
	// Punctuations are emitted only when Options.EmitPunctuations is
	// set.
	Punctuations []Punctuation
	Stats        Stats
}

// pendingOut is a decided output waiting for its release time. The common
// single-destination case (a set decided for its owner) uses dest so
// staging a decision allocates nothing; region greedy picks shared by
// several owners carry dests, a sorted list nothing writes to again.
type pendingOut struct {
	t     *tuple.Tuple
	dest  string
	dests []string
	// owners is the slot bitset of the labels when each is a current
	// member named once, 0 when not, or when not known: a membership
	// change zeroes it on the outputs still staged (forgetOwners).
	owners uint64
}

// forgetOwners zeroes the slot bitsets of staged outputs, whose slots a
// membership change has just moved; their release finds them by label.
func forgetOwners(buf []pendingOut) {
	for i := range buf {
		buf[i].owners = 0
	}
}

// labels returns the output's destination labels; one backs the
// single-destination case.
func (po *pendingOut) labels(one *[1]string) []string {
	if po.dests != nil {
		return po.dests
	}
	one[0] = po.dest
	return one[:]
}

// mergeRelease folds pending outputs released at the same instant into
// transmissions in sequence order, merging the destination lists of the
// same tuple (sorted, for determinism), and records stats. An output that
// alone carries its tuple donates its list. Outputs are mostly staged in
// sequence order already — a region's greedy picks are — so the buffer is
// sorted, stably, only when it is not: decided picks mixed with greedy
// ones, a batch spanning regions, a step's PS decisions.
func (e *Engine) mergeRelease(outs []pendingOut, releasedAt time.Time) {
	sortPending(outs)
	st := &e.result.Stats
	for len(outs) > 0 {
		first := &outs[0]
		t, seq := first.t, first.t.Seq
		same := 1
		for same < len(outs) && outs[same].t.Seq == seq {
			same++
		}
		dests, owners := first.dests, first.owners
		if same > 1 || dests == nil {
			dests, owners = e.mergedDests(outs[:same])
		}
		outs = outs[same:]
		tr := Transmission{Tuple: t, Destinations: dests, ReleasedAt: releasedAt}
		if e.drain {
			e.recycleOut()
			e.out = append(e.out, tr)
		} else {
			e.result.Transmissions = append(e.result.Transmissions, tr)
		}
		if seq < e.maxReleasedSeq {
			st.MultiplexDisorder++
		} else {
			e.maxReleasedSeq = seq
		}
		st.Transmissions++
		st.Deliveries += len(dests)
		if e.released.get(seq) == 0 {
			e.released.inc(seq)
			e.releasedQ = append(e.releasedQ, releasedRec{seq: seq, ts: t.TS.UnixNano()})
			st.DistinctOutputs++
		}
		if owners != 0 {
			for m := owners; m != 0; m &= m - 1 {
				e.delivered[bits.TrailingZeros64(m)]++
			}
		} else {
			for _, d := range dests {
				st.PerFilter[d]++
			}
		}
	}
}

// sortPending puts staged outputs in sequence order, ties in staging
// order. The check is a pass over the buffer; the sort runs only when it
// fails.
func sortPending(outs []pendingOut) {
	for i := 1; i < len(outs); i++ {
		if outs[i].t.Seq < outs[i-1].t.Seq {
			slices.SortStableFunc(outs, func(a, b pendingOut) int { return cmp.Compare(a.t.Seq, b.t.Seq) })
			return
		}
	}
}

// latencies derives one latency sample per delivery from a retaining
// engine's transmissions: release time minus source time, plus the
// multicast delay, repeated for each destination. deliveries sizes the
// slice exactly.
func latencies(trs []Transmission, deliveries int, delay time.Duration) []time.Duration {
	out := make([]time.Duration, 0, deliveries)
	for i := range trs {
		lat := trs[i].ReleasedAt.Sub(trs[i].Tuple.TS) + delay
		for range trs[i].Destinations {
			out = append(out, lat)
		}
	}
	return out
}

// releasedRec is one tuple counted in Stats.DistinctOutputs.
type releasedRec struct {
	seq int
	ts  int64 // source timestamp, Unix nanoseconds
}

// minPruneReleased is the fewest counted tuples worth a pruning pass.
const minPruneReleased = 256

// pruneReleased forgets the counted tuples nothing can release again, so
// the record behind Stats.DistinctOutputs follows the open regions instead
// of the stream. A tuple is released again only as a member of an open
// set, of a closed set whose region is still pending, or of the batch
// buffer; source timestamps strictly increase, so every tuple older than
// the oldest of those is done. It runs between steps (the per-step buffer
// is empty then) once the record has doubled since the last pass, which
// keeps the cost per release constant. The count stays exact for a source
// whose sequence numbers identify its tuples; one that sent a number twice
// could see the second counted again.
func (e *Engine) pruneReleased() {
	low := int64(math.MaxInt64)
	if oldest, ok := e.oldestActive(); ok {
		low = oldest.UnixNano()
	}
	for i := range e.batchBuf {
		low = min(low, e.batchBuf[i].t.TS.UnixNano())
	}
	keep := e.releasedQ[:0]
	for _, r := range e.releasedQ {
		if r.ts >= low {
			keep = append(keep, r)
		} else {
			e.released.dec(r.seq)
		}
	}
	e.releasedQ = keep
	e.pruneAt = max(minPruneReleased, 2*len(keep))
}
