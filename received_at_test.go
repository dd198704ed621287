package gasf_test

import (
	"context"
	"testing"
	"time"

	"gasf"
	"gasf/internal/wire"
)

// TestReceivedAtContract pins Delivery.ReceivedAt on both transports:
// every stamp lies between the publish call of its tuple and the return
// of the RecvInto that delivered it, stamps never go backwards within a
// subscription, and replayed deliveries of a resumed subscription are
// stamped too. On the networked transport the stamp is the socket read
// that brought the frame, so a burst taken by one read shares one stamp.
func TestReceivedAtContract(t *testing.T) {
	t.Run("embedded", func(t *testing.T) {
		b, err := gasf.NewEmbedded(gasf.WithDurability(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		checkReceivedAt(t, b, nil)
	})
	t.Run("networked", func(t *testing.T) {
		srv, err := gasf.StartServer(gasf.ServerConfig{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		b, err := gasf.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		checkReceivedAt(t, b, srv)
	})
}

func checkReceivedAt(t *testing.T, b gasf.Broker, srv *gasf.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer b.Close(ctx)
	schema, err := gasf.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	// published[source][seq] is the instant the tuple's publish call began.
	published := map[string][]time.Time{}
	publish := func(src gasf.Source, k int) []*gasf.Tuple {
		t.Helper()
		at := time.Now()
		batch := make([]*gasf.Tuple, k)
		for i := range batch {
			seq := len(published[src.Name()])
			batch[i], err = gasf.NewTuple(schema, seq, time.Unix(1, int64(seq+1)), []float64{float64(seq)})
			if err != nil {
				t.Fatal(err)
			}
			published[src.Name()] = append(published[src.Name()], at)
		}
		if err := src.PublishBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if err := src.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		return batch
	}
	// recv takes k deliveries and checks each stamp against its tuple's
	// publish call, the receive's return and the previous stamp.
	recv := func(name string, sub gasf.Subscription, k int) []time.Time {
		t.Helper()
		var d gasf.Delivery
		var stamps []time.Time
		last := time.Time{}
		for i := 0; i < k; i++ {
			if err := sub.RecvInto(ctx, &d); err != nil {
				t.Fatalf("%s delivery %d: %v", name, i, err)
			}
			ret := time.Now()
			at := d.ReceivedAt
			pub := published[sub.Source()][d.Tuple.Seq]
			switch {
			case at.IsZero():
				t.Fatalf("%s delivery %d (seq %d) has no ReceivedAt", name, i, d.Tuple.Seq)
			case at.Before(pub):
				t.Fatalf("%s delivery %d (seq %d): ReceivedAt %v before its publish call %v", name, i, d.Tuple.Seq, at, pub)
			case at.After(ret):
				t.Fatalf("%s delivery %d (seq %d): ReceivedAt %v after RecvInto returned %v", name, i, d.Tuple.Seq, at, ret)
			case at.Before(last):
				t.Fatalf("%s delivery %d (seq %d): ReceivedAt %v before the previous %v", name, i, d.Tuple.Seq, at, last)
			}
			last = at
			stamps = append(stamps, at)
		}
		return stamps
	}

	src, err := b.OpenSource(ctx, "s", schema)
	if err != nil {
		t.Fatal(err)
	}
	const spec = "DC1(v, 0.5, 0)" // every tuple passes, released when the next arrives
	res, err := b.Subscribe(ctx, "res", "s", spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		publish(src, 5)
		time.Sleep(2 * time.Millisecond)
	}
	recv("live", res, 19)
	if err := res.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Resumed: the 19 records res received replay first, then the live
	// stream continues.
	res2, err := b.Subscribe(ctx, "res", "s", spec, gasf.WithResumeFrom(0))
	if err != nil {
		t.Fatal(err)
	}
	publish(src, 5)
	publish(src, 5)
	recv("resumed", res2, 19+9)

	if srv == nil {
		return
	}
	// A burst already in the socket buffer: one read takes it whole.
	bsrc, err := b.OpenSource(ctx, "burst", schema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	bsub, err := b.Subscribe(ctx, "b", "burst", spec, gasf.WithQueueDepth(n))
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Counters().BytesOut
	tuples := publish(bsrc, n+1)
	// A transmission frame: 5 header bytes, the 8-byte log offset and
	// the labeled transmission.
	want := before + uint64(n*(5+8+wire.TransmissionSize(tuples[0], []string{"b"})))
	for deadline := time.Now().Add(10 * time.Second); srv.Counters().BytesOut < want; {
		if time.Now().After(deadline) {
			t.Fatalf("server wrote %d of %d bytes", srv.Counters().BytesOut-before, want-before)
		}
		time.Sleep(time.Millisecond)
	}
	stamps := recv("burst", bsub, n)
	for i, at := range stamps {
		if !at.Equal(stamps[0]) {
			t.Fatalf("burst delivery %d stamped %v, delivery 0 %v: one socket read, two stamps", i, at, stamps[0])
		}
	}
}
