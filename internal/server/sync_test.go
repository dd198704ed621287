package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"gasf/internal/tuple"
)

// syncServer starts a server with a single-shard engine for
// deterministic ordering tests.
func syncServer(t *testing.T) *Server {
	t.Helper()
	srv, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func syncCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestPublisherSyncBarrier proves the ping/pong ordering guarantee: a
// subscriber joining after Sync returns sees only tuples published after
// the barrier, every time.
func TestPublisherSyncBarrier(t *testing.T) {
	srv := syncServer(t)
	addr := srv.Addr().String()
	ctx := syncCtx(t)
	schema := tuple.MustSchema("v")
	pub, err := DialPublisher(context.Background(), addr, "src", schema, 0)
	if err != nil {
		t.Fatal(err)
	}

	const boundary = 64
	batch := make([]*tuple.Tuple, 0, boundary)
	mk := func(seq int) *tuple.Tuple {
		return tuple.MustNew(schema, seq, time.Unix(0, int64(seq+1)*int64(time.Millisecond)), []float64{float64(seq)})
	}
	for seq := 0; seq < boundary; seq++ {
		batch = append(batch, mk(seq))
	}
	if err := pub.PublishBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := pub.Sync(ctx); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// The join lands at the barrier: the server has submitted all 64
	// tuples to the ring before the subscriber's AddFilter control could
	// enqueue.
	sub, err := DialSubscriber(context.Background(), addr, "late", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	batch = batch[:0]
	for seq := boundary; seq < boundary+16; seq++ {
		batch = append(batch, mk(seq))
	}
	if err := pub.PublishBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		d, err := recvOne(sub)
		if err != nil {
			if err != ErrStreamEnded {
				t.Fatalf("recv: %v", err)
			}
			break
		}
		if d.Tuple.Seq < boundary {
			t.Fatalf("post-barrier subscriber received pre-barrier tuple %d", d.Tuple.Seq)
		}
		got++
	}
	if got != 16 {
		t.Errorf("received %d deliveries, want the 16 post-barrier pass-all tuples", got)
	}
}

// TestSubscriberLeaveAck proves Leave blocks until the filter has left
// the group: the app name is immediately reusable, which the server only
// permits once the registry entry is gone — and the registry entry only
// goes after the engine-side RemoveFilter completed.
func TestSubscriberLeaveAck(t *testing.T) {
	srv := syncServer(t)
	addr := srv.Addr().String()
	ctx := syncCtx(t)
	schema := tuple.MustSchema("v")
	pub, err := DialPublisher(context.Background(), addr, "src", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		sub, err := DialSubscriber(context.Background(), addr, "app", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
		if err != nil {
			t.Fatalf("round %d: subscribe: %v", round, err)
		}
		if err := publishOne(pub, tuple.MustNew(schema, round, time.Unix(0, int64(round+1)*int64(time.Millisecond)), []float64{float64(round)})); err != nil {
			t.Fatalf("round %d: publish: %v", round, err)
		}
		if err := pub.Sync(ctx); err != nil {
			t.Fatalf("round %d: sync: %v", round, err)
		}
		if err := sub.Leave(ctx); err != nil {
			t.Fatalf("round %d: leave: %v", round, err)
		}
		// No retry loop: the acked leave means "app" is free right now.
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaveAfterStreamEnded pins Leave on a session whose stream has
// already ended: the server retired the member when it sent the goodbye,
// so Leave owes it nothing and returns nil. The fake server answers the
// hello, sends the goodbye, and closes with the client's own goodbye
// unread — which resets the connection, so a Leave that still wrote and
// waited for an ack would report "connection reset by peer".
func TestLeaveAfterStreamEnded(t *testing.T) {
	schema := tuple.MustSchema("v")
	ok, err := EncodeSchema(schema)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := ReadFrame(conn); err == nil {
				WriteFrame(conn, FrameHelloOK, ok)
				WriteFrame(conn, FrameGoodbye, nil)
				time.Sleep(100 * time.Millisecond) // the client's goodbye arrives unread
			}
			conn.Close()
		}
	}()
	for round := 0; round < 10; round++ {
		sub, err := DialSubscriber(context.Background(), ln.Addr().String(), "app", "src", "DC1(v, 0.5, 0)", SubDialOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recvOne(sub); !errors.Is(err, ErrStreamEnded) {
			t.Fatalf("round %d: receive returned %v, want ErrStreamEnded", round, err)
		}
		if err := sub.Leave(syncCtx(t)); err != nil {
			t.Fatalf("round %d: leave after the stream ended: %v", round, err)
		}
	}
	ln.Close()
	<-served
}

// TestSyncAfterShutdownReportsEnd proves Sync surfaces the server's
// drain as a stream end, not a hang.
func TestSyncAfterShutdownReportsEnd(t *testing.T) {
	srv, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	schema := tuple.MustSchema("v")
	pub, err := DialPublisher(context.Background(), addr, "src", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pub.Sync(ctx); err == nil {
		t.Error("sync against a drained server should fail")
	} else if err != ErrStreamEnded {
		// A goodbye race can also surface as a closed connection; both
		// are acceptable ends, a hang is not.
		t.Logf("sync after shutdown: %v", err)
	}
}

// TestLeaveManySubscribers shuffles joins and acked leaves across many
// apps to stress the writer/reader hand-off around the departure ack.
func TestLeaveManySubscribers(t *testing.T) {
	srv := syncServer(t)
	addr := srv.Addr().String()
	ctx := syncCtx(t)
	schema := tuple.MustSchema("v")
	pub, err := DialPublisher(context.Background(), addr, "src", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscriber, 12)
	for i := range subs {
		if subs[i], err = DialSubscriber(context.Background(), addr, fmt.Sprintf("app%d", i), "src", "DC1(v, 0.5, 0)", SubDialOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 48; i++ {
		if err := publishOne(pub, tuple.MustNew(schema, i, time.Unix(0, int64(i+1)*int64(time.Millisecond)), []float64{float64(i)})); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			idx := i / 4
			if idx < len(subs) {
				if err := pub.Sync(ctx); err != nil {
					t.Fatal(err)
				}
				if err := subs[idx].Leave(ctx); err != nil {
					t.Fatalf("leave %d: %v", idx, err)
				}
			}
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
}
