package gasf_test

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gasf"
	"gasf/internal/faultnet"
	"gasf/internal/server"
)

// helloGate relays each client connection to backend, forwarding the
// client's hello frame at once and everything after it only once open is
// closed. A reconnecting publisher registers its source through the gate
// immediately, but its republished window reaches the server only after
// the test has let the subscriber rejoin: a tuple released into an empty
// group belongs to nobody, which would hide a duplicate as surely as a gap.
type helloGate struct {
	ln      net.Listener
	backend string
	open    chan struct{}
}

func newHelloGate(t *testing.T, backend string) *helloGate {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &helloGate{ln: ln, backend: backend, open: make(chan struct{})}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			go g.relay(front)
		}
	}()
	return g
}

func (g *helloGate) relay(front net.Conn) {
	defer front.Close()
	back, err := net.Dial("tcp", g.backend)
	if err != nil {
		return
	}
	defer back.Close()
	go func() {
		io.Copy(front, back)
		front.Close()
	}()
	kind, payload, err := server.ReadFrame(front)
	if err != nil || server.WriteFrame(back, kind, payload) != nil {
		return
	}
	<-g.open
	io.Copy(back, front)
}

// TestReconnectRepublishesTrimmedWindow republishes a non-empty unacked
// window across a server restart. Wave 1 is published to a durable server
// without a Sync, so all of it is still in the source's window when the
// server is hard-closed; the log holds every tuple but the one the engine
// held back. After the restart on the same directory the source redials,
// learns the log's highest sequence from the resume hint, and republishes
// only what lies past it; then it keeps publishing wave 2. The resuming
// subscriber must see every sequence exactly once, at dense offsets.
func TestReconnectRepublishesTrimmedWindow(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	srv, err := gasf.StartServer(gasf.ServerConfig{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.NewProxy(srv.Addr().String(), faultnet.Faults{Seed: 29, PartialWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	rb, err := gasf.Dial(proxy.Addr(), gasf.WithReconnect(gasf.Backoff{
		Base: 10 * time.Millisecond,
		Max:  50 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	wave1 := recoverySeries(t, 100, 0)
	src, err := rb.OpenSource(ctx, "src", wave1.Schema())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := rb.Subscribe(ctx, "a", "src", "DC1(v, 0.5, 0)")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*gasf.Tuple, 0, wave1.Len())
	for i := 0; i < wave1.Len(); i++ {
		batch = append(batch, wave1.At(i))
	}
	if err := src.PublishBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}

	var (
		mu        sync.Mutex
		collected []*gasf.Delivery
		count     atomic.Int64
	)
	consumerDone := make(chan error, 1)
	go func() {
		for {
			d, err := sub.Recv(ctx)
			if errors.Is(err, gasf.ErrStreamEnded) {
				consumerDone <- nil
				return
			}
			if err != nil {
				consumerDone <- err
				return
			}
			mu.Lock()
			collected = append(collected, d)
			mu.Unlock()
			count.Add(1)
		}
	}()
	// The slack-0 engine releases a tuple when the next one arrives: 99 of
	// wave 1's 100 reach the log, the last stays held.
	for deadline := time.Now().Add(30 * time.Second); count.Load() < int64(wave1.Len()-1); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d of %d pre-crash deliveries", count.Load(), wave1.Len()-1)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("hard close: %v", err)
	}
	proxy.CutAll()
	srv2, err := gasf.StartServer(gasf.ServerConfig{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	gate := newHelloGate(t, srv2.Addr().String())
	proxy.SetBackend(gate.ln.Addr().String())
	proxy.CutAll()

	// The barrier finds the connection lost and redials; the gate lets the
	// source register and holds its republished window and ping until the
	// subscriber, redialing on its own, has rejoined the group.
	synced := make(chan error, 1)
	go func() { synced <- src.Sync(ctx) }()
	for deadline := time.Now().Add(30 * time.Second); len(srv2.Debug().Subscribers) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never rejoined")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate.open)
	if err := <-synced; err != nil {
		t.Fatalf("post-restart sync: %v", err)
	}

	wave2 := recoverySeries(t, 100, 100)
	publishAll(ctx, t, src, wave2)
	if err := src.Finish(ctx); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := <-consumerDone; err != nil {
		t.Fatalf("consumer: %v", err)
	}

	if want := wave1.Len() + wave2.Len(); len(collected) != want {
		t.Errorf("deliveries = %d, want %d", len(collected), want)
	}
	for i, d := range collected {
		if d.Offset != uint64(i) || d.Tuple.Seq != i {
			t.Fatalf("delivery %d is seq %d at offset %d, want seq and offset %d (a duplicate or gap across the restart)", i, d.Tuple.Seq, d.Offset, i)
		}
	}

	closeCtx, closeCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer closeCancel()
	if err := rb.Close(closeCtx); err != nil {
		t.Errorf("client close: %v", err)
	}
	if err := srv2.Shutdown(closeCtx); err != nil {
		t.Errorf("server shutdown: %v", err)
	}
}

// silentListener accepts connections and never answers on them.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestReconnectDialEndsWithContext pins that a cancelled context ends a
// session dial: opening a source, subscribing, and a reconnecting source's
// redial, each against a listener that accepts but never answers the
// hello, return context.Canceled promptly instead of waiting out the dial
// timeout. A source whose redial was cancelled redials on its next call.
func TestReconnectDialEndsWithContext(t *testing.T) {
	silent := silentListener(t)
	schema, err := gasf.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	cancelled := func(t *testing.T, op func(ctx context.Context) error) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		err := op(ctx)
		if took := time.Since(start); !errors.Is(err, context.Canceled) || took > time.Second {
			t.Fatalf("returned %v after %v, want context.Canceled well under 1s", err, took)
		}
	}
	closeBroker := func(b gasf.Broker) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b.Close(ctx)
	}

	t.Run("open_source", func(t *testing.T) {
		rb, err := gasf.Dial(silent)
		if err != nil {
			t.Fatal(err)
		}
		defer closeBroker(rb)
		cancelled(t, func(ctx context.Context) error {
			_, err := rb.OpenSource(ctx, "src", schema)
			return err
		})
	})
	t.Run("subscribe", func(t *testing.T) {
		rb, err := gasf.Dial(silent)
		if err != nil {
			t.Fatal(err)
		}
		defer closeBroker(rb)
		cancelled(t, func(ctx context.Context) error {
			_, err := rb.Subscribe(ctx, "a", "src", "DC1(v, 0.5, 0)")
			return err
		})
	})
	t.Run("source_redial", func(t *testing.T) {
		srv, err := gasf.StartServer(gasf.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		proxy, err := faultnet.NewProxy(srv.Addr().String(), faultnet.Faults{})
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		rb, err := gasf.Dial(proxy.Addr(), gasf.WithReconnect(gasf.Backoff{
			Base: 10 * time.Millisecond,
			Max:  50 * time.Millisecond,
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer closeBroker(rb)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		src, err := rb.OpenSource(ctx, "src", schema)
		if err != nil {
			t.Fatal(err)
		}
		publishAll(ctx, t, src, recoverySeries(t, 3, 0))
		proxy.SetBackend(silent)
		proxy.CutAll()
		cancelled(t, src.Sync)
		// The cancelled redial left the source without a session; the next
		// call redials it, against the server again.
		proxy.SetBackend(srv.Addr().String())
		publishAll(ctx, t, src, recoverySeries(t, 3, 3))
	})
}
