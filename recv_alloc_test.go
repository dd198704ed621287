package gasf_test

import (
	"context"
	"testing"
	"time"

	"gasf"
	"gasf/internal/wire"
)

// TestRemoteRecvIntoZeroAllocs gates the client receive path where users
// meet it: Subscription.RecvInto on the networked transport. The server
// has written the whole stream before the measurement starts — it sits in
// the socket buffers — so the only code running is the client's: frame
// read, in-place decode, label interning, offset bookkeeping. Steady state
// allocates nothing per delivery, under a context that cannot be
// cancelled and under one cancellable context passed to every call. (The
// session's frame reader used to allocate per frame and the context
// plumbing per call: 2 and 6 allocations per delivery.)
func TestRemoteRecvIntoZeroAllocs(t *testing.T) {
	const warmup, measured = 200, 1000
	const n = 2*(warmup+measured) + 1 // a slack-0 set closes when the next tuple arrives
	srv, err := gasf.StartServer(gasf.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer srv.Shutdown(ctx)
	b, err := gasf.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(ctx)
	schema, err := gasf.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	src, err := b.OpenSource(ctx, "s1", schema)
	if err != nil {
		t.Fatal(err)
	}
	// Room for the whole stream in the session's queue: nothing blocks,
	// nothing is dropped, the publisher never waits for the consumer.
	sub, err := b.Subscribe(ctx, "app", "s1", "DC1(v, 0.5, 0)", gasf.WithQueueDepth(n))
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]*gasf.Tuple, n)
	for i := range tuples {
		if tuples[i], err = gasf.NewTuple(schema, i, time.Unix(1, int64(i)), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.PublishBatch(ctx, tuples); err != nil {
		t.Fatal(err)
	}
	if err := src.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Every frame is 5 header bytes and one labeled transmission; once the
	// server has counted them all written, it has nothing left to do.
	wantBytes := uint64((n - 1) * (5 + wire.TransmissionSize(tuples[0], []string{"app"})))
	for deadline := time.Now().Add(10 * time.Second); srv.Counters().BytesOut < wantBytes; {
		if time.Now().After(deadline) {
			t.Fatalf("server wrote %d of %d bytes", srv.Counters().BytesOut, wantBytes)
		}
		time.Sleep(time.Millisecond)
	}

	cancellable, stop := context.WithCancel(ctx)
	defer stop()
	next := 0
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{
		{"background", context.Background()},
		{"cancellable", cancellable},
	} {
		var d gasf.Delivery
		recv := func() {
			if err := sub.RecvInto(c.ctx, &d); err != nil {
				t.Fatal(err)
			}
			if d.Tuple.Seq != next || len(d.Destinations) != 1 || d.Destinations[0] != "app" {
				t.Fatalf("delivery %d is tuple %d for %v", next, d.Tuple.Seq, d.Destinations)
			}
			next++
		}
		for i := 0; i < warmup; i++ {
			recv()
		}
		// AllocsPerRun makes one untimed call first.
		if avg := testing.AllocsPerRun(measured-1, recv); avg != 0 {
			t.Errorf("%s context: RecvInto allocates %.2f objects per delivery, want 0", c.name, avg)
		}
	}
}
