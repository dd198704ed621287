// Emergency response: the chlorine train-derailment scenario of §5.5.1.
//
// A chlorine-concentration source (Gaussian-puff plume model) streams
// readings at 10 tuples/s. Three command-and-control applications
// subscribe with different granularity needs:
//
//   - fire-prediction wants fine-grained concentration updates,
//   - responder-safety wants medium granularity with tight timeliness
//     (timely cuts bound its delay),
//   - situation-assessment tolerates coarse updates.
//
// The group-aware filtering service — an embedded broker here — multiplexes
// the three filters' outputs for tuple-level multicast; the example reports
// the bandwidth spent versus self-interested filtering.
//
//	go run ./examples/emergency
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"gasf"
	"gasf/internal/trace"
)

const sourceName = "chlorine/downtown"

// apps are the three subscribers with their granularity (delta, slack) in
// units of the source's observed variability, the way the paper's §4.3
// derives deltas from srcStatistics.
var apps = []struct {
	name         string
	delta, slack float64
}{
	{"fire-prediction", 4, 2},
	{"responder-safety", 5.5, 2.75},
	{"situation-assessment", 7, 3.5},
}

func main() {
	// The plume model: wind carries the release past a sensor 400 m
	// downwind.
	series, err := trace.Chlorine(trace.ChlorineConfig{
		Config:    trace.Config{N: 6000, Seed: 11, Interval: 100 * time.Millisecond},
		WindSpeed: 2.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	stat, err := series.MeanAbsChange("chlorine")
	if err != nil {
		log.Fatal(err)
	}

	// Responder safety is latency-critical: bound the filtering delay
	// with timely cuts at 3 s (loose enough to keep candidate sets —
	// and their bandwidth savings — intact; see Fig 4.12's trade-off).
	ctx := context.Background()
	b, err := gasf.NewEmbedded(gasf.WithAlgorithm(gasf.RG), gasf.WithCuts(3*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	src, err := b.OpenSource(ctx, sourceName, series.Schema())
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	perApp := make([]int, len(apps))
	for i, app := range apps {
		spec := fmt.Sprintf("DC1(chlorine, %g, %g)", app.delta*stat, app.slack*stat)
		sub, err := b.Subscribe(ctx, app.name, sourceName, spec)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := sub.Recv(ctx); errors.Is(err, gasf.ErrStreamEnded) {
					return
				} else if err != nil {
					log.Fatal(err)
				}
				perApp[i]++
			}
		}()
	}

	// Stream the plume through the group.
	if err := src.PublishBatch(ctx, series.Tuples()); err != nil {
		log.Fatal(err)
	}
	if err := src.Finish(ctx); err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	if err := b.Close(ctx); err != nil {
		log.Fatal(err)
	}

	res := b.Results()[sourceName]
	fmt.Printf("chlorine plume: %d readings streamed (srcStatistics %.3f)\n", series.Len(), stat)
	fmt.Printf("group-aware output: %d distinct tuples (O/I %.3f), %d regions (%d cut)\n",
		res.Stats.DistinctOutputs, res.Stats.OIRatio(), res.Stats.Regions, res.Stats.RegionsCut)
	for i, app := range apps {
		fmt.Printf("  %-22s received %4d updates\n", app.name, perApp[i])
	}

	// Compare with self-interested filtering of the same stream.
	var filters []gasf.Filter
	for _, app := range apps {
		f, err := gasf.NewDCFilter(app.name, "chlorine", app.delta*stat, app.slack*stat)
		if err != nil {
			log.Fatal(err)
		}
		filters = append(filters, f)
	}
	si, err := gasf.RunSelfInterested(filters, series, gasf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ratio := float64(res.Stats.DistinctOutputs) / float64(si.Stats.DistinctOutputs)
	fmt.Printf("\nself-interested filtering would multicast %d distinct tuples;\n", si.Stats.DistinctOutputs)
	fmt.Printf("group awareness reduced the bandwidth demand to %.0f%% of that.\n", ratio*100)
}
