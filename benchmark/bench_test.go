package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// runQuick drives one workload once at -quick sizes and returns the
// result object printed as the last line of standard output.
func runQuick(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-workload", workload, "-seed", "7", "-trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s -trace %s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s -trace %s: last line is not a result: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d\n%s",
			workload, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

// TestDeclarationMatches holds BENCHMARK.json and the program to the
// same workloads and metrics, and drives all four workloads once.
func TestDeclarationMatches(t *testing.T) {
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	// sameSet checks the emitted metrics are exactly the declared ones,
	// unit for unit.
	sameSet := func(what string, emitted map[string]metric, declared map[string]string) {
		t.Helper()
		for n, m := range emitted {
			if !name.MatchString(n) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", what, n)
			}
			if unit, ok := declared[n]; !ok {
				t.Errorf("%s: emits %q, which BENCHMARK.json does not declare", what, n)
			} else if unit != m.Unit {
				t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", what, n, m.Unit, unit)
			}
		}
		for n := range declared {
			if _, ok := emitted[n]; !ok {
				t.Errorf("%s: BENCHMARK.json declares %q, which is not emitted", what, n)
			}
		}
	}
	e2e, layers := make(map[string]string), make(map[string]string)
	for _, m := range decl.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		layers[m.Name] = m.Unit
	}
	// Counts a fixed seed must reproduce exactly.
	exact := []string{"server.wire_bytes_per_tuple", "relay.dedup_ratio", "wire.bytes_per_transmission"}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || !name.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, decl.Workloads[i].Name, w.name)
		}
		plain := runQuick(t, w.name, "0")
		sameSet(w.name+" -trace 0", plain.Metrics, e2e)
		for n, m := range plain.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, n)
			}
		}
		first, second := runQuick(t, w.name, "1"), runQuick(t, w.name, "1")
		sameSet(w.name+" -trace 1", first.Metrics, layers)
		for _, n := range exact {
			if a, b := first.Metrics[n].Value, second.Metrics[n].Value; a != b {
				t.Errorf("%s: %s does not repeat for a fixed seed: %v then %v", w.name, n, a, b)
			}
		}
		if again := runQuick(t, w.name, "0"); again.Metrics["oi_ratio"] != plain.Metrics["oi_ratio"] {
			t.Errorf("%s: oi_ratio does not repeat for a fixed seed: %v then %v",
				w.name, plain.Metrics["oi_ratio"].Value, again.Metrics["oi_ratio"].Value)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to the one the
// acceptance check uses (Python's statistics.quantiles, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestSelfTime checks a span's self time excludes what its children
// cover, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	r := newRecorder("w")
	r.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
	}
	for _, tot := range r.totals() {
		if tot.Name == "parent" && tot.Self != 50 {
			t.Errorf("parent self time = %d, want 50", tot.Self)
		}
	}
}
