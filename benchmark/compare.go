package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// declaration is the part of BENCHMARK.json -compare reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readRecords loads the untraced records of an -out file, grouped as
// workload -> metric -> one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: %s seed %d failed its correctness check; nothing to compare", path, rec.Workload, rec.Seed)
		}
		byMetric := out[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			out[rec.Workload] = byMetric
		}
		for name, m := range rec.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse b is than a in the metric's own direction, and the
// bound. It returns 1 when any metric of b is outside its bound.
// A metric whose own run-to-run spread exceeds the bound cannot resolve
// a difference that small and is flagged, not passed.
func compareFiles(stdout, stderr io.Writer, spec, pathA, pathB string) int {
	decl, err := readDeclaration(spec)
	if err == nil && len(decl.EndToEnd) == 0 {
		err = fmt.Errorf("%s declares no end-to-end metrics", spec)
	}
	var a, b map[string]map[string][]float64
	if err == nil {
		a, err = readRecords(pathA)
	}
	if err == nil {
		b, err = readRecords(pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	regressions := 0
	fmt.Fprintf(stdout, "%-20s %-22s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "worse by", "bound", "spread", "verdict")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-20s %-22s %14s %14s %9s %7s %8s  missing\n", w.Name, m.Name, "-", "-", "-", "-", "-")
				regressions++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if m.Better == "higher" {
					worse = -worse
				}
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "OUTSIDE BOUND"
				regressions++
			case sp > m.Bound && m.Name != "setup_s":
				verdict = "unresolved (spread > bound)"
			}
			fmt.Fprintf(stdout, "%-20s %-22s %14.6g %14.6g %+8.2f%% %6.1f%% %7.2f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sp, verdict)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d metric(s) outside bound or missing\n", regressions)
		return 1
	}
	return 0
}
