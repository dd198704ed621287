package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gasf/internal/federate"
)

// TestSubHelloRelayVersion pins the version-3 relay handshake: the relay
// section round-trips exactly, version-2 hellos keep decoding with no
// relay fields, and malformed relay sections are rejected rather than
// misread.
func TestSubHelloRelayVersion(t *testing.T) {
	enc, err := EncodeSubHelloRelay("app", "src", "DC1(v, 0.5, 0)", 7, true, 42, "edge-1")
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeSubHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != SubProtoVersionRelay || !h.Relay || h.RelayEdge != "edge-1" {
		t.Fatalf("relay decode: %+v", h)
	}
	if !h.Resume || h.ResumeFrom != 42 || h.App != "app" || h.Source != "src" || h.Queue != 7 {
		t.Fatalf("relay decode lost v2 fields: %+v", h)
	}

	// The non-resume form still carries the relay section.
	enc, err = EncodeSubHelloRelay("app", "src", "DC1(v, 0.5, 0)", 0, false, 0, "edge-2")
	if err != nil {
		t.Fatal(err)
	}
	h, err = DecodeSubHello(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Resume || !h.Relay || h.RelayEdge != "edge-2" {
		t.Fatalf("non-resume relay decode: %+v", h)
	}

	// A version-2 hello decodes with the relay fields zero.
	v2, err := EncodeSubHelloResume("app", "src", "DC1(v, 0.5, 0)", 7, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err = DecodeSubHello(v2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Relay || h.RelayEdge != "" || h.Version != SubProtoVersion {
		t.Fatalf("v2 decode grew relay fields: %+v", h)
	}

	// Encode-time rejection: a relay hello must name its edge.
	if _, err := EncodeSubHelloRelay("app", "src", "DC1(v, 0.5, 0)", 0, false, 0, ""); err == nil {
		t.Fatal("empty edge name accepted at encode")
	}

	// Decode-time rejections: trailing junk, a bad relay flag, and a
	// relay flag with no edge name behind it.
	good, err := EncodeSubHelloRelay("app", "src", "DC1(v, 0.5, 0)", 0, false, 0, "e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSubHello(append(append([]byte(nil), good...), 0xFF)); err == nil {
		t.Fatal("trailing junk accepted")
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-3] = 2 // relay flag precedes the uvarint(1)+1-byte edge name
	if _, err := DecodeSubHello(bad); err == nil {
		t.Fatal("bad relay flag accepted")
	}
	if _, err := DecodeSubHello(good[:len(good)-2]); err == nil {
		t.Fatal("truncated relay edge name accepted")
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
			pub, err := DialPublisher(core.Addr().String(), "s1", sr.Schema())
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
					sub, err := DialSubscriber(edge.Addr().String(), fmt.Sprintf("g%d", i), "s1", "DC1(v, 0.5, 0)")
					if err != nil {
						t.Fatal(err)
					}
					subs.Add(1)
					go func() {
						defer subs.Done()
						defer sub.Close()
						var d Delivery
						for sub.RecvIntoContext(context.Background(), &d) == nil {
							received.Add(1)
						}
					}()
				}
			}
			published := make(chan struct{})
			go func() {
				defer close(published)
				for off := 0; off < tuples; off += 64 {
					if pub.PublishBatchContext(context.Background(), sr.Tuples()[off:min(off+64, tuples)]) != nil {
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
