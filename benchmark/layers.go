package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"gasf/internal/core"
	"gasf/internal/metrics"
	"gasf/internal/seglog"
	"gasf/internal/shard"
	"gasf/internal/telemetry"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// isoTuples caps how many of a source's tuples the isolation passes
// replay: enough for stable per-tuple figures, short enough to fit a run.
const isoTuples = 40000

// isolate replays the workload's own inputs through each layer's public
// functions, one layer at a time and nothing else running, each pass
// inside a span. It returns per-layer metric values by name.
func isolate(in *inputs, rec *recorder, tmpRoot string) (map[string]float64, error) {
	out := make(map[string]float64)
	root := rec.start(0, "isolation")
	defer rec.end(root)
	n := min(in.sz.perSource(), isoTuples)
	total := float64(n * len(in.sources))
	span := func(name string, fn func() error) error {
		id := rec.start(root, name)
		defer rec.end(id)
		return fn()
	}

	// filter: every filter of every group over the tuples, standalone.
	// A stateful filter is told an output was chosen (the set's latest
	// member) when its set closes, as the engine would tell it.
	if err := span("filter.process", func() error {
		var spent time.Duration
		for _, src := range in.sources {
			group, err := buildGroup(src)
			if err != nil {
				return err
			}
			t0 := time.Now()
			for _, f := range group {
				for _, t := range src.tuples[:n] {
					ev, err := f.Process(t)
					if err != nil {
						return err
					}
					for ev.Closed != nil && f.Stateful() {
						m := ev.Closed.Members
						ev = f.ObserveChosen(m[len(m)-1:])
					}
				}
			}
			spent += time.Since(t0)
		}
		out["filter.process_ns_per_tuple"] = float64(spent) / total
		return nil
	}); err != nil {
		return nil, fmt.Errorf("filter isolation: %w", err)
	}

	// core: one sequential engine per source; its released transmissions
	// feed the wire and seglog passes.
	var released [][]core.Transmission
	if err := span("core.step", func() error {
		var (
			spent, cpu, greedy   time.Duration
			regions, regionTuple int
			m0, m1               runtime.MemStats
		)
		for _, src := range in.sources {
			group, err := buildGroup(src)
			if err != nil {
				return err
			}
			e, err := core.NewEngine(group, core.Options{})
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for _, t := range src.tuples[:n] {
				if err := e.Step(t); err != nil {
					return err
				}
			}
			spent += time.Since(t0)
			runtime.ReadMemStats(&m1)
			out["core.allocs_per_tuple"] += float64(m1.Mallocs-m0.Mallocs) / total
			out["core.bytes_per_tuple"] += float64(m1.TotalAlloc-m0.TotalAlloc) / total
			if err := e.Finish(); err != nil {
				return err
			}
			st := e.Result().Stats
			cpu, greedy = cpu+st.CPU, greedy+st.GreedyCPU
			regions, regionTuple = regions+st.Regions, regionTuple+st.RegionTupleSum
			released = append(released, e.Result().Transmissions)
		}
		out["core.step_ns_per_tuple"] = float64(spent) / total
		out["core.regions"] = float64(regions)
		if regions > 0 {
			out["core.mean_region_tuples"] = float64(regionTuple) / float64(regions)
		}
		if cpu > 0 {
			out["core.greedy_cpu_frac"] = float64(greedy) / float64(cpu)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core isolation: %w", err)
	}

	// shard: the same engines behind the runtime's rings, one producer
	// per source, a sink that does nothing. Process CPU, not wall time,
	// so the figure compares with core's single-threaded one.
	if err := span("shard.submit", func() error {
		rt := shard.New(shard.Config{})
		for _, src := range in.sources {
			group, err := buildGroup(src)
			if err != nil {
				return err
			}
			if err := rt.AddGroup(src.name, group, core.Options{}); err != nil {
				return err
			}
		}
		if err := rt.Start(context.Background(), func([]shard.Out) {}); err != nil {
			return err
		}
		cpu0 := cpuTime()
		var wg sync.WaitGroup
		errs := make([]error, len(in.sources))
		for i, src := range in.sources {
			wg.Add(1)
			go func(i int, src *sourceInput) {
				defer wg.Done()
				for off := 0; off < n && errs[i] == nil; off += satBatch {
					errs[i] = rt.SubmitBatch(src.name, src.tuples[off:min(off+satBatch, n)])
				}
			}(i, src)
		}
		wg.Wait()
		err := rt.Drain()
		for _, e := range errs {
			if err == nil {
				err = e
			}
		}
		submit := float64(cpuTime()-cpu0) / total
		out["shard.submit_ns_per_tuple"] = submit
		out["shard.overhead_ns_per_tuple"] = submit - out["core.step_ns_per_tuple"]
		return err
	}); err != nil {
		return nil, fmt.Errorf("shard isolation: %w", err)
	}

	// wire: decode of every ingest tuple, encode of every released
	// transmission with the fan-out's prefix-caching encoder.
	var payloads [][]byte // encoded transmissions of the first source, for seglog
	if err := span("wire.codec", func() error {
		var decode, encode time.Duration
		var encoded, bytes int
		for i, src := range in.sources {
			var buf []byte
			var err error
			for _, t := range src.tuples[:n] {
				if buf, err = wire.AppendTuple(buf, t); err != nil {
					return err
				}
			}
			var dst tuple.Tuple
			t0 := time.Now()
			for data := buf; len(data) > 0; {
				used, err := wire.DecodeTupleInto(&dst, src.schema, data)
				if err != nil {
					return err
				}
				data = data[used:]
			}
			decode += time.Since(t0)

			var enc wire.TransmissionEncoder
			var frame []byte
			keep := i == 0 && in.w.kind == kindDurable
			t0 = time.Now()
			for _, tr := range released[i] {
				if frame, err = enc.AppendTransmission(frame[:0], 1, tr.Tuple, tr.Destinations); err != nil {
					return err
				}
				bytes += len(frame)
				if keep {
					payloads = append(payloads, append([]byte(nil), frame...))
				}
			}
			encode += time.Since(t0)
			encoded += len(released[i])
		}
		out["wire.decode_ns_per_tuple"] = float64(decode) / total
		if encoded > 0 {
			out["wire.encode_ns_per_transmission"] = float64(encode) / float64(encoded)
			out["wire.bytes_per_transmission"] = float64(bytes) / float64(encoded)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("wire isolation: %w", err)
	}

	// seglog: append then re-read those transmissions, with the log
	// options the durable server runs with (the defaults).
	if len(payloads) > 0 {
		if err := span("seglog.append_read", func() error {
			if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
				return err
			}
			dir, err := os.MkdirTemp(tmpRoot, "seglog-iso-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			log, err := seglog.Open(dir, seglog.Options{})
			if err != nil {
				return err
			}
			var bytes int
			t0 := time.Now()
			for _, p := range payloads {
				if _, err := log.Append("feed", p); err != nil {
					log.Close()
					return err
				}
				bytes += len(p)
			}
			appendT := time.Since(t0)
			records := 0
			t0 = time.Now()
			err = log.Read("feed", 0, uint64(len(payloads)), func(uint64, []byte) error {
				records++
				return nil
			})
			readT := time.Since(t0)
			if cerr := log.Close(); err == nil {
				err = cerr
			}
			if err == nil && records != len(payloads) {
				err = fmt.Errorf("read back %d of %d records", records, len(payloads))
			}
			count := float64(len(payloads))
			out["seglog.append_ns_per_record"] = float64(appendT) / count
			out["seglog.read_ns_per_record"] = float64(readT) / count
			out["seglog.bytes_per_record"] = float64(len(seglog.AppendRecord(nil, 0, nil))) + float64(bytes)/count
			return err
		}); err != nil {
			return nil, fmt.Errorf("seglog isolation: %w", err)
		}
	}
	return out, nil
}

// frugalRatio feeds the run's exact latency samples through the
// telemetry layer's Frugal-2U pair and returns its p99 estimate over the
// exact p99 — the instrument under test, on this workload's own
// distribution. (The brokers' own delivery-latency snapshot counts from
// the tuple's source timestamp, which is synthetic here, so it cannot be
// compared with anything.)
func frugalRatio(windows [][]float64) float64 {
	pair := telemetry.NewLatencyPair()
	var all []float64
	for _, w := range windows {
		for _, ms := range w {
			pair.Observe(time.Duration(ms * 1e6))
		}
		all = append(all, w...)
	}
	exact := metrics.Quantile(all, 0.99)
	if exact <= 0 {
		return 0
	}
	return float64(pair.Snapshot().P99) / 1e6 / exact
}
