package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gasf/internal/federate"
	"gasf/internal/session"
)

// TestSubHelloRelayVersion pins the relay flag of the handshake: the
// edge name round-trips with and without a resume offset, an encoder
// never sets the flag without a name, and malformed relay sections are
// rejected rather than misread.
func TestSubHelloRelayVersion(t *testing.T) {
	const spec = "DC1(v, 0.5, 0)"
	for _, want := range []SubHello{
		{App: "app", Source: "src", Spec: spec, Queue: 7, Resume: true, ResumeFrom: 42, RelayEdge: "edge-1"},
		{App: "app", Source: "src", Spec: spec, RelayEdge: "edge-2"},
	} {
		enc, err := EncodeSubHello(want)
		if err != nil {
			t.Fatal(err)
		}
		h, err := DecodeSubHello(enc)
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Fatalf("relay round trip: got %+v, want %+v", h, want)
		}
	}

	// Decode-time rejections: trailing junk, an empty edge name, and a
	// relay flag with no edge name behind it.
	good, err := EncodeSubHello(SubHello{App: "app", Source: "src", Spec: spec, RelayEdge: "e"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSubHello(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Fatal("trailing junk accepted")
	}
	empty := append(append([]byte(nil), good[:len(good)-2]...), 0)
	if _, err := DecodeSubHello(empty); err == nil {
		t.Fatal("empty relay edge name accepted")
	}
	if _, err := DecodeSubHello(good[:len(good)-2]); err == nil {
		t.Fatal("relay flag without an edge name accepted")
	}

	// A version this server does not speak is rejected by name, not read
	// with the layout it happens to share.
	future := append([]byte(nil), good...)
	future[len(future)-4] = 7 // version precedes the flags, uvarint(1) and the name
	_, err = DecodeSubHello(future)
	if err == nil {
		t.Fatal("version-7 hello accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "7") || !strings.Contains(msg, fmt.Sprint(SubProtoVersion)) {
		t.Fatalf("version error does not name both versions: %v", err)
	}
}

// ledger is a snapshot of the frame free-list ledger.
type ledger struct{ frameGets, framePuts, batchGets, batchPuts uint64 }

func readLedger() ledger {
	return ledger{
		frameStats.frameGets.Load(), frameStats.framePuts.Load(),
		frameStats.batchGets.Load(), frameStats.batchPuts.Load(),
	}
}

// TestFramePoolBalancedAcrossFederatedTeardown extends the frame-leak
// detector to a federation — one core, two edges, each edge relaying one
// upstream leg to two members — torn down mid-stream (edges and core
// shut down while the publisher is still sending, in mixed order) and
// after the source finished. Every frame and batch any of the three
// nodes checked out must be back in the free lists: the relay fan-out,
// the members' writers and every teardown path included.
func TestFramePoolBalancedAcrossFederatedTeardown(t *testing.T) {
	frameStats.enabled.Store(true)
	t.Cleanup(func() { frameStats.enabled.Store(false) })
	for _, midStream := range []bool{true, false} {
		name := "after-finish"
		if midStream {
			name = "mid-stream"
		}
		t.Run(name, func(t *testing.T) {
			base := readLedger()
			quiet := func(string, ...any) {}
			core, err := Start(Config{Logf: quiet, SubscriberQueue: 4, Federation: FederationConfig{Role: federate.RoleCore, Self: "c0"}})
			if err != nil {
				t.Fatal(err)
			}
			cores := []federate.Node{{Name: "c0", Addr: core.Addr().String()}}
			if err := core.UpdatePeers(cores); err != nil {
				t.Fatal(err)
			}
			var edges [2]*Server
			for i := range edges {
				if edges[i], err = Start(Config{Logf: quiet, SubscriberQueue: 4, Federation: FederationConfig{Role: federate.RoleEdge, Self: fmt.Sprintf("e%d", i), Peers: cores}}); err != nil {
					t.Fatal(err)
				}
			}
			const tuples = 20000
			sr := stepSeries(t, tuples, 0)
			pub, err := DialPublisher(context.Background(), core.Addr().String(), "s1", sr.Schema(), 0)
			if err != nil {
				t.Fatal(err)
			}
			var (
				subs     sync.WaitGroup
				received atomic.Uint64
			)
			for i, edge := range edges {
				for m := 0; m < 2; m++ {
					// One group per edge: an app name is unique per source
					// at the core, whichever edge relays it.
					sub, err := DialSubscriber(context.Background(), edge.Addr().String(), fmt.Sprintf("g%d", i), "s1", "DC1(v, 0.5, 0)", SubDialOpts{})
					if err != nil {
						t.Fatal(err)
					}
					subs.Add(1)
					go func() {
						defer subs.Done()
						defer sub.Close()
						var d session.Delivery
						for sub.RecvInto(context.Background(), &d) == nil {
							received.Add(1)
						}
					}()
				}
			}
			published := make(chan struct{})
			go func() {
				defer close(published)
				for off := 0; off < tuples; off += 64 {
					if pub.PublishBatch(context.Background(), sr.Tuples()[off:min(off+64, tuples)]) != nil {
						return // the core went down under the publisher
					}
				}
				pub.Close()
			}()
			shutdown := func(s *Server) {
				ctx, cancel := ctxTimeout()
				defer cancel()
				if err := s.Shutdown(ctx); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}
			if midStream {
				waitFor(t, "relayed deliveries", func() bool { return received.Load() > 2000 })
				shutdown(edges[0])
				shutdown(core)
				shutdown(edges[1])
				<-published
				pub.Close()
			} else {
				<-published
				subs.Wait()
				if got := received.Load(); got != 4*tuples {
					t.Errorf("members received %d deliveries, want %d", got, 4*tuples)
				}
				shutdown(core)
				shutdown(edges[0])
				shutdown(edges[1])
			}
			subs.Wait()

			got := readLedger()
			fg, fp := got.frameGets-base.frameGets, got.framePuts-base.framePuts
			bg, bp := got.batchGets-base.batchGets, got.batchPuts-base.batchPuts
			if fg != fp {
				t.Errorf("frame leak: %d gets, %d puts (%d stranded)", fg, fp, int64(fg)-int64(fp))
			}
			if bg != bp {
				t.Errorf("batch leak: %d gets, %d puts (%d stranded)", bg, bp, int64(bg)-int64(bp))
			}
			if fg == 0 || bg == 0 {
				t.Errorf("ledger recorded no traffic (frames %d, batches %d)", fg, bg)
			}
		})
	}
}
