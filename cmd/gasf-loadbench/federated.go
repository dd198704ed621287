// Federated mode for gasf-loadbench: an in-process federation — one
// core owning the sources, two edges holding the subscriber sessions —
// driven through gasf.DialFederated over real TCP. Subscribers are
// grouped so several sessions share each (source, app, spec) group, and
// the run reports the upstream dedup ratio the edge tier achieves (local
// sessions per core→edge leg) together with the relay delivery latency
// the edges observe. Results merge into -out under the "federation" key
// and soft-gate against the previous run via warnIfWorse.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"gasf"
)

// fedSharing is how many subscriber sessions share each group: the
// designed dedup factor. The report asserts the edge tier actually
// achieves it — one upstream leg per group, however many members.
const fedSharing = 4

// federatedConfig parameterizes one federated run.
type federatedConfig struct {
	publishers, subscribers, tuples, queue int
}

// fedLatency is a relay latency pair in milliseconds.
type fedLatency struct {
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	Count uint64  `json:"count"`
}

// federatedReport is the "federation" section of BENCH_serve.json.
type federatedReport struct {
	Cores            int `json:"cores"`
	Edges            int `json:"edges"`
	Publishers       int `json:"publishers"`
	Subscribers      int `json:"subscribers"`
	TuplesPerSource  int `json:"tuples_per_source"`
	SharingPerGroup  int `json:"sharing_per_group"`
	UpstreamLegs     int `json:"upstream_legs"`
	LocalSubscribers int `json:"local_subscribers"`
	// UpstreamDedupRatio is local subscriber sessions per core→edge leg
	// across the edge tier — the bandwidth multiplier group-aware
	// federation exists to deliver.
	UpstreamDedupRatio float64 `json:"upstream_dedup_ratio"`
	// RelayLatency is the worst edge's sampled relay delivery latency
	// (tuple source timestamp to edge egress write) — max across edges,
	// so the number never flatters a lagging node.
	RelayLatency     fedLatency `json:"relay_latency"`
	Deliveries       int        `json:"deliveries"`
	ElapsedSec       float64    `json:"elapsed_sec"`
	DeliveriesPerSec float64    `json:"deliveries_per_sec"`
}

// runFederated executes federated mode and merges the section into out.
func runFederated(cfg federatedConfig, out string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// One core owning every source; it learns the (single-node) ring
	// once its own address is known, exactly as an operator would
	// bootstrap a tier.
	core, err := gasf.StartServer(gasf.ServerConfig{
		Federation:      gasf.FederationConfig{Role: gasf.RoleCore, Self: "c0"},
		SubscriberQueue: cfg.queue,
	})
	if err != nil {
		return err
	}
	defer core.Close()
	coreNodes := []gasf.FederationNode{{Name: "c0", Addr: core.Addr().String()}}
	if err := core.UpdatePeers(coreNodes); err != nil {
		return err
	}

	edges := make([]*gasf.Server, 2)
	edgeNodes := make([]gasf.FederationNode, len(edges))
	for i := range edges {
		name := fmt.Sprintf("e%d", i)
		if edges[i], err = gasf.StartServer(gasf.ServerConfig{
			Federation:      gasf.FederationConfig{Role: gasf.RoleEdge, Self: name, Peers: coreNodes},
			SubscriberQueue: cfg.queue,
		}); err != nil {
			return err
		}
		defer edges[i].Close()
		edgeNodes[i] = gasf.FederationNode{Name: name, Addr: edges[i].Addr().String()}
	}

	b, err := gasf.DialFederated(gasf.FormatPeers(coreNodes), gasf.FormatPeers(edgeNodes))
	if err != nil {
		return err
	}
	schema, err := gasf.NewSchema("v")
	if err != nil {
		return err
	}
	pubs := make([]gasf.Source, cfg.publishers)
	for i := range pubs {
		if pubs[i], err = b.OpenSource(ctx, fmt.Sprintf("fed%d", i), schema); err != nil {
			return err
		}
	}

	// fedSharing consecutive sessions share each group — same source,
	// same app, same spec — so the whole group crosses the core→edge
	// link once. Groups round-robin over the sources.
	groups := (cfg.subscribers + fedSharing - 1) / fedSharing
	subs := make([]gasf.Subscription, cfg.subscribers)
	for i := range subs {
		g := i / fedSharing
		source := fmt.Sprintf("fed%d", g%cfg.publishers)
		app := fmt.Sprintf("grp%d", g)
		if subs[i], err = b.Subscribe(ctx, app, source, "DC1(v, 0.5, 0)"); err != nil {
			return err
		}
	}

	// The dedup numbers are read now, while every session is attached:
	// legs tear down with their last member, so a post-storm snapshot
	// would see an empty edge tier.
	var legs, local int
	for _, e := range edges {
		st := e.FederationStats()
		legs += st.UpstreamLegs
		local += st.LocalSubscribers
	}
	if legs != groups {
		return fmt.Errorf("edge tier carries %d upstream legs for %d groups — dedup broken", legs, groups)
	}
	if local != cfg.subscribers {
		return fmt.Errorf("edge tier holds %d local sessions, want %d", local, cfg.subscribers)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, cfg.publishers+cfg.subscribers)
	counts := make([]int, cfg.subscribers)
	start := time.Now()
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub gasf.Subscription) {
			defer wg.Done()
			var d gasf.Delivery
			for {
				err := sub.RecvInto(ctx, &d)
				if errors.Is(err, gasf.ErrStreamEnded) {
					return
				}
				if err != nil {
					errCh <- fmt.Errorf("subscriber %d: %w", i, err)
					return
				}
				counts[i]++
			}
		}(i, sub)
	}
	// The same batched, wall-clock-stamped load generation as the storm
	// bench: step-1 values are pass-all under DC1(v, 0.5, 0), and the
	// wall-clock stamps are what the edges' relay latency samples
	// measure against.
	const pubBatch = 256
	for i, pub := range pubs {
		wg.Add(1)
		go func(i int, pub gasf.Source) {
			defer wg.Done()
			batch := make([]*gasf.Tuple, 0, pubBatch)
			backing := make([]float64, pubBatch)
			lastTS := time.Time{}
			for n := 0; n < cfg.tuples; {
				k := min(cfg.tuples-n, pubBatch)
				batch = batch[:0]
				ts := time.Now()
				for j := 0; j < k; j++ {
					if !ts.After(lastTS) {
						ts = lastTS.Add(time.Nanosecond)
					}
					backing[j] = float64(n + j)
					tp, err := gasf.NewTuple(schema, n+j, ts, backing[j:j+1])
					if err != nil {
						errCh <- fmt.Errorf("publisher %d tuple %d: %w", i, n+j, err)
						return
					}
					batch = append(batch, tp)
					lastTS = ts
					ts = ts.Add(time.Nanosecond)
				}
				if err := pub.PublishBatch(ctx, batch); err != nil {
					errCh <- fmt.Errorf("publisher %d tuple %d: %w", i, n, err)
					return
				}
				n += k
			}
			if err := pub.Finish(ctx); err != nil {
				errCh <- fmt.Errorf("publisher %d finish: %w", i, err)
			}
		}(i, pub)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		return err
	}

	// Every member of every group must see the full filtered stream:
	// n publishes release n-1 sets live (the engine holds the last one
	// open), and Finish flushes the held tail — exactly n deliveries.
	want := cfg.tuples
	deliveries := 0
	for i, n := range counts {
		if n != want {
			return fmt.Errorf("subscriber %d received %d deliveries, want %d (relay fan-out lost or duplicated)", i, n, want)
		}
		deliveries += n
	}

	// Relay latency survives leg teardown — it lives on the edge, not
	// the leg. Max across edges: the worst node is the honest number.
	var relay fedLatency
	for _, e := range edges {
		st := e.FederationStats()
		r := st.Relay
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		if ms(r.P99) > relay.P99Ms {
			relay = fedLatency{P50Ms: ms(r.P50), P99Ms: ms(r.P99), Count: r.Count}
		}
	}
	if relay.Count == 0 {
		return fmt.Errorf("edges sampled no relay latency — relay path not exercised")
	}

	rep := federatedReport{
		Cores:              1,
		Edges:              len(edges),
		Publishers:         cfg.publishers,
		Subscribers:        cfg.subscribers,
		TuplesPerSource:    cfg.tuples,
		SharingPerGroup:    fedSharing,
		UpstreamLegs:       legs,
		LocalSubscribers:   local,
		UpstreamDedupRatio: float64(local) / float64(legs),
		RelayLatency:       relay,
		Deliveries:         deliveries,
		ElapsedSec:         elapsed.Seconds(),
		DeliveriesPerSec:   float64(deliveries) / elapsed.Seconds(),
	}
	fmt.Fprintf(os.Stderr, "federated: %d legs for %d sessions (dedup %.1fx), relay p99 %.2fms\n",
		legs, local, rep.UpstreamDedupRatio, relay.P99Ms)

	closeCtx, closeCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer closeCancel()
	if err := b.Close(closeCtx); err != nil {
		return fmt.Errorf("client close: %w", err)
	}
	for _, e := range edges {
		if err := e.Shutdown(closeCtx); err != nil {
			return fmt.Errorf("edge shutdown: %w", err)
		}
	}
	if err := core.Shutdown(closeCtx); err != nil {
		return fmt.Errorf("core shutdown: %w", err)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", enc)
	if out == "-" {
		return nil
	}
	// Soft-gate against the previous committed section before replacing
	// it, like the overload gate: a collapsed dedup ratio or a relay
	// latency blow-up warns loudly.
	if prev, err := os.ReadFile(out); err == nil {
		var base struct {
			Federation *federatedReport `json:"federation"`
		}
		if json.Unmarshal(prev, &base) == nil && base.Federation != nil {
			warnIfWorse("upstream_dedup_ratio", rep.UpstreamDedupRatio, base.Federation.UpstreamDedupRatio, true)
			warnIfWorse("federation_relay_p99 ms", rep.RelayLatency.P99Ms, base.Federation.RelayLatency.P99Ms, false)
		}
	}
	doc := map[string]json.RawMessage{}
	if prev, err := os.ReadFile(out); err == nil && len(prev) > 0 {
		if err := json.Unmarshal(prev, &doc); err != nil {
			return fmt.Errorf("merging into %s: %w", out, err)
		}
	}
	doc["federation"] = json.RawMessage(enc)
	merged, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(merged, '\n'), 0o644)
}
