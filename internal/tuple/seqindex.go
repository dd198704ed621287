package tuple

// SeqIndex maps the sequence numbers of one batch of tuples — a region's
// members, a hitting-set instance's candidates — to small non-zero
// values, for callers that deduplicate or number those tuples. A region's
// sequence numbers lie in a narrow window, so the index is normally a
// dense slice keyed by seq-lo, cleared per batch: no map and no sort. A
// window too wide for the batch (a sparse numbering) spills into a map
// instead, so memory stays proportional to the batch. The zero value is
// ready to use; a SeqIndex is reused across batches and is not safe for
// concurrent use.
type SeqIndex struct {
	lo     int
	dense  []int32
	sparse map[int]int32
	isMap  bool
}

// Reset empties the index for a batch of n tuples whose sequence numbers
// lie in [lo, hi]. The dense form is used when the window spans at most
// 8n+256 numbers.
func (x *SeqIndex) Reset(lo, hi, n int) {
	x.isMap = hi < lo || uint64(hi)-uint64(lo) >= uint64(8*n+256)
	if x.isMap {
		if x.sparse == nil {
			x.sparse = make(map[int]int32, n)
		}
		clear(x.sparse)
		return
	}
	w := hi - lo + 1
	if cap(x.dense) < w {
		x.dense = make([]int32, w)
	} else {
		x.dense = x.dense[:w]
		clear(x.dense)
	}
	x.lo = lo
}

// Get returns the value stored for seq, 0 when none is.
func (x *SeqIndex) Get(seq int) int32 {
	if x.isMap {
		return x.sparse[seq]
	}
	return x.dense[seq-x.lo]
}

// Set stores v for seq, which must lie in the window given to Reset.
func (x *SeqIndex) Set(seq int, v int32) {
	if x.isMap {
		x.sparse[seq] = v
		return
	}
	x.dense[seq-x.lo] = v
}

// AppendValues appends the non-zero stored values to dst: in sequence
// order when the index is dense, in no defined order otherwise.
func (x *SeqIndex) AppendValues(dst []int32) []int32 {
	if x.isMap {
		for _, v := range x.sparse {
			if v != 0 {
				dst = append(dst, v)
			}
		}
		return dst
	}
	for _, v := range x.dense {
		if v != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}
