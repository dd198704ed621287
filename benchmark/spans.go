package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the system under test (or around one of its own phases). Times
// are nanoseconds since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	workload string
	base     time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, base: time.Now()}
}

// start opens a span under parent and returns its id (0 when disabled).
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// spanTotals aggregates the spans sharing one name.
type spanTotals struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the part child spans cover
}

// totals computes, per span name, the summed duration and self time. A
// span's self time is its duration minus the union of its children's
// intervals clipped to it, so concurrent children are not counted twice.
func (r *recorder) totals() []spanTotals {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanTotals)
	var order []string
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t.Count++
		t.Total += time.Duration(dur)
		t.Self += time.Duration(dur - covered)
	}
	out := make([]spanTotals, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}

// printTotals writes the per-name span table.
func printTotals(w io.Writer, totals []spanTotals) {
	fmt.Fprintf(w, "  %-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range totals {
		fmt.Fprintf(w, "  %-22s %8d %12.3f %12.3f\n", t.Name, t.Count,
			float64(t.Total)/1e6, float64(t.Self)/1e6)
	}
}
