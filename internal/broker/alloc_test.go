package broker

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/filter"
	"gasf/internal/quality"
	"gasf/internal/session"
	"gasf/internal/shard"
	"gasf/internal/trace"
	"gasf/internal/tuple"
)

// group12Specs is the mixed 12-filter group of the engine's step gate and
// of the embedded_group benchmark workload: DC1/DC2/DC3, stateful and
// sampling filters over one NAMOS trace.
func group12Specs(t *testing.T, n int) (*tuple.Series, []quality.Spec) {
	t.Helper()
	sr, err := trace.NAMOS(trace.Config{N: n, Seed: 5000})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := quality.Table52(sr, 52)
	if err != nil {
		t.Fatal(err)
	}
	var specs []quality.Spec
	specs = append(specs, groups[2].Specs...)
	specs = append(specs, groups[4].Specs[:2]...)
	specs = append(specs, groups[5].Specs[:2]...)
	specs = append(specs, groups[6].Specs...)
	for _, sp := range groups[2].Specs[:2] {
		sp.Kind = quality.SDC
		specs = append(specs, sp)
	}
	for i := range specs {
		if specs[i].Kind == quality.SS {
			specs[i].Interval = 250 * time.Millisecond
		} else {
			specs[i].Slack = specs[i].Delta / 4
		}
	}
	return sr, specs
}

// TestSinkRouteZeroAllocs is the allocation gate of the embedded fan-out:
// the sink, Route's recompute of the fan-out view and the queue hand-off
// allocate nothing per transmission once warm. The transmissions are the
// group12 engine's own, whose destination list changes almost every
// transmission; every addressee is subscribed and draining, so nothing is
// pruned and each delivery shares the engine's list.
func TestSinkRouteZeroAllocs(t *testing.T) {
	ctx := testCtx(t)
	sr, specs := group12Specs(t, 3000)
	apps := make([]string, len(specs))
	filters := make([]filter.Filter, len(specs))
	for i, sp := range specs {
		apps[i] = fmt.Sprintf("app%02d", i)
		f, err := sp.Build(apps[i])
		if err != nil {
			t.Fatal(err)
		}
		filters[i] = f
	}
	res, err := core.Run(filters, sr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]shard.Out, len(res.Transmissions))
	for i, tr := range res.Transmissions {
		batch[i] = shard.Out{Source: "namos", Tr: tr}
	}

	// Each queue holds two passes' deliveries, so no Send waits on a
	// drainer that has fallen behind.
	b, err := New(session.Config{SubscriberQueue: 2 * len(batch)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenSource("namos", sr.Schema()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, sp := range specs {
		sub, err := b.Subscribe(ctx, apps[i], "namos", sp, SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d Delivery
			for sub.RecvInto(ctx, &d) == nil {
			}
		}()
	}

	const run = 64 // transmissions per sink call, the shard's flush batch
	pass := func() {
		for lo := 0; lo < len(batch); lo += run {
			b.sink(batch[lo:min(lo+run, len(batch))])
		}
	}
	// AllocsPerRun's own warm-up pass sizes the members' scratch.
	perTr := testing.AllocsPerRun(1, pass) / float64(len(batch))
	t.Logf("%d transmissions to 12 subscribers: %.4f allocations per transmission", len(batch), perTr)
	if perTr != 0 {
		t.Errorf("embedded sink: %.4f allocations per transmission, want 0", perTr)
	}
	if err := b.Close(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestSinkPrunedViewKeepsEngineList checks the other side of the shared
// labels: when an addressee has left, the delivery carries a fresh pruned
// slice and the engine's list is left as it was.
func TestSinkPrunedViewKeepsEngineList(t *testing.T) {
	ctx := testCtx(t)
	b, err := New(session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(context.Background())
	src := openBench(t, b)
	subs := map[string]*Sub{}
	for _, app := range []string{"a", "b"} {
		if subs[app], err = b.Subscribe(ctx, app, src.Name(), passAllSpec(t), SubOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	tu := tuple.MustNew(src.Schema(), 0, trace.Epoch, []float64{0})
	dests := []string{"a", "b"}
	b.sink([]shard.Out{{Source: src.Name(), Tr: core.Transmission{Tuple: tu, Destinations: dests}}})
	d, err := subs["a"].Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if &d.Destinations[0] != &dests[0] {
		t.Errorf("unpruned delivery labels %v do not share the engine's list", d.Destinations)
	}
	if _, err := subs["b"].Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := subs["b"].Close(ctx); err != nil {
		t.Fatal(err)
	}
	b.sink([]shard.Out{{Source: src.Name(), Tr: core.Transmission{Tuple: tu, Destinations: dests}}})
	if d, err = subs["a"].Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if len(d.Destinations) != 1 || d.Destinations[0] != "a" {
		t.Errorf("pruned delivery labels = %v, want [a]", d.Destinations)
	}
	if dests[0] != "a" || dests[1] != "b" {
		t.Errorf("the engine's list was rewritten: %v", dests)
	}
}
