// Command benchmark is the repository's one benchmark: four named
// workloads driven through the gasf.Broker interfaces, each checked
// against a sequential reference, reporting bounded end-to-end metrics
// (-trace 0) or an outside-in per-layer budget (-trace 1). See README.md
// in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gasf/internal/metrics"
)

// Validity limits of the open-loop phase: beyond them the generator, not
// the system, shaped the numbers, and the run is invalid rather than slow.
const (
	lagLimitMs   = 100.0
	drainLimitMs = 2500.0
	// minLatencySamples leaves at least ten samples beyond the 99th
	// percentile.
	minLatencySamples = 1000
	// setupsPerRun is how often an untraced run sets the system up and
	// tears it down again before its rounds; the median is reported. One
	// set-up takes 0.4 to 3 ms and a run's set-ups spread by half their
	// median, so it takes hundreds for a median that repeats within a few
	// hundredths.
	setupsPerRun = 301
	// watchdog aborts a run that would overstay the driver's per-run cap.
	watchdog = 170 * time.Second
)

// errInvalid marks a run whose measurements must not be reported.
var errInvalid = errors.New("invalid run")

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	out      string
	runs     int
	quick    bool
	tmpRoot  string
}

// machine describes where a record was measured.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as appended to -out: the result plus what produced it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Machine  machine `json:"machine"`
	result
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 14, "how long one run measures")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write the traced run's spans here (JSON lines)")
	fs.StringVar(&cfg.out, "out", "", "append every run's record here (JSON lines), for -compare")
	fs.IntVar(&cfg.runs, "runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny sizes, no validity limits (self-test)")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
	spec := fs.String("spec", "BENCHMARK.json", "the benchmark declaration -compare takes bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two record files")
			return 2
		}
		return compareFiles(stdout, stderr, *spec, fs.Arg(0), fs.Arg(1))
	}
	if cfg.seconds <= 0 || cfg.runs < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds and -runs must be positive, -trace 0 or 1")
		return 2
	}
	// A scaling figure recorded with more procs than CPUs says nothing.
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "benchmark: GOMAXPROCS %d exceeds the %d CPUs present; refusing to measure\n", procs, cpus)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg.tmpRoot = filepath.Join(".bench_build", "tmp")

	var chosen []*workload
	if cfg.workload == "all" {
		chosen = workloads
	} else if w := workloadByName(cfg.workload); w != nil {
		chosen = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	timer := time.AfterFunc(watchdog*time.Duration(len(chosen)*cfg.runs), func() {
		fmt.Fprintln(stderr, "benchmark: watchdog: run overstayed its limit")
		os.RemoveAll(cfg.tmpRoot)
		os.Exit(4)
	})
	defer timer.Stop()

	m := describeMachine()
	code := 0
	for _, w := range chosen {
		for i := 0; i < cfg.runs; i++ {
			seed := cfg.seed + int64(i)
			rec, err := measure(cfg, w, seed, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w.name, seed, err)
				if errors.Is(err, errInvalid) {
					return 3
				}
				return 1
			}
			rec.Machine = m
			if cfg.out != "" {
				if err := appendRecord(cfg.out, rec); err != nil {
					fmt.Fprintf(stderr, "benchmark: %v\n", err)
					return 1
				}
			}
			line, err := json.Marshal(rec.result)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
			if !rec.Correct {
				code = 1
			}
		}
	}
	return code
}

// measure runs one workload once on one seed and returns its record.
func measure(cfg config, w *workload, seed int64, stderr io.Writer) (*record, error) {
	rec := &record{Workload: w.name, Seed: seed, Trace: cfg.trace, Seconds: cfg.seconds}
	fmt.Fprintf(stderr, "== %s  seed %d  trace %d  %.0f s  GOMAXPROCS %d of %d CPUs\n",
		w.name, seed, cfg.trace, cfg.seconds, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if cfg.trace == 0 {
		in, err := makeInputs(w, seed, w.sizesFor(cfg.seconds, cfg.quick))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "  inputs and reference: %.2f s\n", in.referenceS)
		setups := setupsPerRun
		if cfg.quick {
			setups = 1
		}
		res, err := runWorkload(runConfig{in: in, setups: setups, tmpRoot: cfg.tmpRoot})
		if err != nil {
			return nil, err
		}
		printRounds(res, stderr)
		if err := validate(cfg, res, stderr); err != nil {
			return nil, err
		}
		rec.result = verdict(res, stderr)
		rec.Metrics = collect(endToEnd, endToEndValues(res))
		printMetrics(stderr, endToEnd, rec.Metrics)
		return rec, nil
	}

	// Traced: an untraced and a traced pass over the same inputs, half
	// the run length each, then the isolation passes.
	in, err := makeInputs(w, seed, w.sizesFor(cfg.seconds/2, cfg.quick))
	if err != nil {
		return nil, err
	}
	plain, err := runWorkload(runConfig{in: in, tmpRoot: cfg.tmpRoot})
	if err != nil {
		return nil, err
	}
	spans := newRecorder(w.name)
	traced, err := runWorkload(runConfig{in: in, rec: spans, tmpRoot: cfg.tmpRoot})
	if err != nil {
		return nil, err
	}
	printRounds(traced, stderr)
	if err := validate(cfg, traced, stderr); err != nil {
		return nil, err
	}
	iso, err := isolate(in, spans, cfg.tmpRoot)
	if err != nil {
		return nil, err
	}
	rec.result = verdict(traced, stderr)
	if p := verdict(plain, stderr); !p.Correct {
		rec.Correct, rec.Failed = false, rec.Failed+p.Failed
	}
	values := layerValues(in, plain, traced, iso)
	rec.Metrics = collect(perLayer, values)
	printMetrics(stderr, perLayer, rec.Metrics)
	printBudget(stderr, traced, values)
	printTotals(stderr, spans.totals())
	if cfg.traceOut != "" {
		if err := spans.write(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// printRounds shows what the reported medians were taken over: every
// round's throughput, and the quartiles of the set-ups.
func printRounds(r *runResult, stderr io.Writer) {
	if len(r.setupS) > 0 {
		q1, q3 := quartiles(r.setupS)
		fmt.Fprintf(stderr, "  %d set-ups: quartiles %.3f %.3f %.3f ms\n", len(r.setupS), q1*1e3, median(r.setupS)*1e3, q3*1e3)
	}
	fmt.Fprintf(stderr, "  closed loop: %d rounds of %d tuples, thousand tuples/s:", len(r.satWall), r.satTuples)
	for _, wall := range r.satWall {
		fmt.Fprintf(stderr, " %.0f", float64(r.satTuples)/wall.Seconds()/1e3)
	}
	fmt.Fprintln(stderr)
}

// validate rejects a run the load generator, not the system, shaped.
func validate(cfg config, r *runResult, stderr io.Writer) error {
	lag := metrics.Quantile(r.lagMs, 0.99)
	lat := r.latencies()
	samples := len(lat)
	fmt.Fprintf(stderr, "  open loop: deliver p50 %.4f ms, p99 %.3f ms over %d samples; generator lag p99 %.3f ms (limit %.0f), drain %.1f ms (limit %.0f)\n",
		r.deliverP50(), metrics.Quantile(lat, 0.99), samples, lag, lagLimitMs, r.drainMs, drainLimitMs)
	if cfg.quick {
		return nil
	}
	switch {
	case lag > lagLimitMs:
		return fmt.Errorf("%w: the open loop ran %.1f ms late at p99 (limit %.0f ms)", errInvalid, lag, lagLimitMs)
	case r.drainMs > drainLimitMs:
		return fmt.Errorf("%w: %.0f ms of backlog was left when the schedule ended (limit %.0f ms)", errInvalid, r.drainMs, drainLimitMs)
	case samples < minLatencySamples:
		return fmt.Errorf("%w: %d latency samples leave fewer than ten beyond the 99th percentile", errInvalid, samples)
	}
	return nil
}

// verdict turns a pass's checks into the result header.
func verdict(r *runResult, stderr io.Writer) result {
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "  FAILED: %s\n", f)
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
}

func describeMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(out))
	}
	return m
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("appending record: %w", err)
	}
	if _, err = f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending record to %s: %w", path, err)
	}
	return f.Close()
}
