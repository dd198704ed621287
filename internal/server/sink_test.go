package server

import (
	"context"
	"net"
	"testing"
	"time"

	"gasf/internal/core"
	"gasf/internal/quality"
	"gasf/internal/session"
	"gasf/internal/shard"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// sinkFixture builds a Server around a real session core but with no
// listener and no session goroutines: members are joined through the core,
// nothing is published, and the tests call the sink themselves with
// fabricated releases — standing in for the source's shard worker, which
// stays idle — so the fan-out path can be driven deterministically.
type sinkFixture struct {
	s      *Server
	src    *sourceSession
	schema *tuple.Schema
}

func newSinkFixture(t *testing.T) *sinkFixture {
	t.Helper()
	// Telemetry sampling every event: the fan-out alloc gate below must
	// hold with the stage timers fully hot, not just at the default
	// 1-in-64 sampling.
	return newSinkFixtureWith(t, Config{Policy: PolicyDrop, Logf: t.Logf, TelemetrySampleEvery: 1, SourceTimeout: -1})
}

func newSinkFixtureWith(t *testing.T, cfg Config) *sinkFixture {
	t.Helper()
	schema, err := tuple.NewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, lg: cfg.resolveLogger()}
	if s.core, err = session.New[*frameBatch](cfg.session(nil), s.sink); err != nil {
		t.Fatal(err)
	}
	s.tel = s.core.Telemetry()
	t.Cleanup(func() {
		s.core.Close(context.Background(), func([]*session.Source[*frameBatch]) error { return nil }, nil)
	})
	client, srvEnd := net.Pipe()
	t.Cleanup(func() { client.Close() })
	src := newSourceSession("s1", srvEnd, schema)
	if err := s.core.OpenSource(&src.Source); err != nil {
		t.Fatal(err)
	}
	return &sinkFixture{s: s, src: src, schema: schema}
}

// subscribe joins a queue-only subscriber session (no connection, no
// writer) with a pass-all spec.
func (fx *sinkFixture) subscribe(app string, queue int) *subscriber {
	return fx.subscribeSpec(app, queue, "DC1(v, 0.5, 0)")
}

func (fx *sinkFixture) subscribeSpec(app string, queue int, spec string) *subscriber {
	sub := newSubscriber(fx.s, app, "s1", nil, queue)
	if err := fx.s.core.Join(context.Background(), sub.m, quality.MustParse(spec)); err != nil {
		panic(err)
	}
	return sub
}

// unsubscribe detaches the session the way a departing client does.
func (fx *sinkFixture) unsubscribe(sub *subscriber) { fx.s.removeSubscriber(sub) }

func (fx *sinkFixture) out(t *testing.T, seq int, dests ...string) shard.Out {
	t.Helper()
	ts := time.Unix(1, 0).Add(time.Duration(seq) * time.Millisecond)
	tp, err := tuple.New(fx.schema, seq, ts, []float64{float64(seq)})
	if err != nil {
		t.Fatal(err)
	}
	return shard.Out{Source: "s1", Tr: core.Transmission{Tuple: tp, Destinations: dests, ReleasedAt: ts}}
}

// take pops one release-cycle batch from a subscriber queue, asserts it
// carries exactly one frame, and returns that frame without releasing
// it (the batch itself is recycled, as the writer would).
func take(t *testing.T, sub *subscriber) *frame {
	t.Helper()
	select {
	case b := <-sub.m.Queue():
		if len(b.frames) != 1 {
			t.Fatalf("cycle batch carries %d frames, want 1", len(b.frames))
		}
		fr := b.frames[0]
		putBatch(b)
		return fr
	default:
		t.Fatal("no frame queued")
		return nil
	}
}

// getFrame checks out one empty frame the way the sink's stash does.
func getFrame() *frame {
	var one [1]*frame
	if frameStats.enabled.Load() {
		frameStats.frameGets.Add(1)
	}
	return takeFrames(one[:0], 1, 0)[0]
}

// getBatch checks out one empty batch of capacity size.
func getBatch(size int) *frameBatch {
	var one [1]*frameBatch
	return takeBatches(one[:0], 1, size)[0]
}

// decodeFrame decodes a transmission frame into tuple and destinations.
func decodeFrame(t *testing.T, fx *sinkFixture, fr *frame) (*tuple.Tuple, []string) {
	t.Helper()
	const start = frameHeaderLen + 8 // the offset precedes the transmission
	if len(fr.buf) < start || fr.buf[0] != FrameTransmission {
		t.Fatalf("bad frame: %v", fr.buf)
	}
	tp, dests, n, err := wire.DecodeTransmission(fx.schema, fr.buf[start:])
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fr.buf)-start {
		t.Fatalf("frame carries %d trailing bytes", len(fr.buf)-start-n)
	}
	return tp, dests
}

// TestSinkEncodesOnlyLiveLabels is the satellite gate: once a subscriber
// departs, transmissions the engine still addresses to it must not spend
// egress bytes on its label — remaining subscribers receive frames
// labeled with the live targets only.
func TestSinkEncodesOnlyLiveLabels(t *testing.T) {
	fx := newSinkFixture(t)
	subA := fx.subscribe("a", 16)
	subB := fx.subscribe("b", 16)

	// Both live: the frame carries both labels.
	fx.s.sink([]shard.Out{fx.out(t, 1, "a", "b")})
	frA, frB := take(t, subA), take(t, subB)
	if frA != frB {
		t.Fatal("fan-out did not share one frame across subscriber queues")
	}
	_, dests := decodeFrame(t, fx, frA)
	if len(dests) != 2 || dests[0] != "a" || dests[1] != "b" {
		t.Fatalf("live labels %v, want [a b]", dests)
	}
	bothLen := len(frA.buf)
	frA.release()
	frB.release()

	// b departs; the engine still owes it an output decided earlier.
	fx.unsubscribe(subB)
	fx.s.sink([]shard.Out{fx.out(t, 2, "a", "b")})
	fr := take(t, subA)
	tp, dests := decodeFrame(t, fx, fr)
	if tp.Seq != 2 {
		t.Fatalf("seq %d, want 2", tp.Seq)
	}
	if len(dests) != 1 || dests[0] != "a" {
		t.Fatalf("labels after departure %v, want [a]", dests)
	}
	// The departed label stopped consuming egress bytes.
	want, err := wire.AppendTransmission(nil, tp, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fr.buf) - frameHeaderLen - 8; got != len(want) {
		t.Fatalf("frame payload %d bytes, want %d (single live label)", got, len(want))
	}
	if len(fr.buf) >= bothLen {
		t.Fatalf("frame with departed label (%dB) not smaller than dual-label frame (%dB)", len(fr.buf), bothLen)
	}
	fr.release()

	// Nothing was queued for the departed subscriber.
	select {
	case <-subB.m.Queue():
		t.Fatal("departed subscriber received a frame")
	default:
	}
}

// TestSinkEpochInvalidatesCache verifies a subscription change between
// identical destination lists refreshes the cached targets: a rejoining
// app must start receiving again immediately.
func TestSinkEpochInvalidatesCache(t *testing.T) {
	fx := newSinkFixture(t)
	subA := fx.subscribe("a", 16)
	fx.s.sink([]shard.Out{fx.out(t, 1, "a", "b")})
	take(t, subA).release()

	// b joins between two transmissions with the same destination list.
	subB := fx.subscribe("b", 16)
	fx.s.sink([]shard.Out{fx.out(t, 2, "a", "b")})
	frA, frB := take(t, subA), take(t, subB)
	_, dests := decodeFrame(t, fx, frB)
	if len(dests) != 2 {
		t.Fatalf("labels %v after rejoin, want both", dests)
	}
	frA.release()
	frB.release()
}

// TestSinkSourceGone covers flushes racing a finished source: no frames,
// no panic.
func TestSinkSourceGone(t *testing.T) {
	fx := newSinkFixture(t)
	sub := fx.subscribe("a", 16)
	if _, err := fx.s.core.FinishSource(&fx.src.Source, true); err != nil {
		t.Fatal(err)
	}
	fx.s.sink([]shard.Out{fx.out(t, 1, "a")})
	select {
	case <-sub.m.Queue():
		t.Fatal("frame delivered for a retired source")
	default:
	}
}

// TestSinkBatchHandoff pins the per-cycle hand-off contract: one sink
// flush carrying several transmissions reaches each subscriber as ONE
// queued batch holding all of its frames in release order, not one
// queue entry per frame.
func TestSinkBatchHandoff(t *testing.T) {
	fx := newSinkFixture(t)
	subA := fx.subscribe("a", 16)
	subB := fx.subscribe("b", 16)
	fx.s.sink([]shard.Out{
		fx.out(t, 1, "a", "b"),
		fx.out(t, 2, "a"),
		fx.out(t, 3, "a", "b"),
	})
	bA := <-subA.m.Queue()
	if got := len(bA.frames); got != 3 {
		t.Fatalf("a's cycle batch carries %d frames, want 3", got)
	}
	for i, want := range []int{1, 2, 3} {
		tp, _ := decodeFrame(t, fx, bA.frames[i])
		if tp.Seq != want {
			t.Fatalf("a's frame %d is seq %d, want %d (release order)", i, tp.Seq, want)
		}
	}
	bB := <-subB.m.Queue()
	if got := len(bB.frames); got != 2 {
		t.Fatalf("b's cycle batch carries %d frames, want 2", got)
	}
	if bA.frames[0] != bB.frames[0] || bA.frames[2] != bB.frames[1] {
		t.Fatal("fan-out did not share frames across subscriber batches")
	}
	select {
	case <-subA.m.Queue():
		t.Fatal("subscriber a got more than one queue entry for one cycle")
	case <-subB.m.Queue():
		t.Fatal("subscriber b got more than one queue entry for one cycle")
	default:
	}
	bA.releaseAll()
	bB.releaseAll()
}

// TestSinkFanoutAllocs is the §8 regression gate for the shared-frame
// fan-out: steady-state sink → queue → release cycles must not allocate
// (the recycled frame, batch and scratch and the cached prefix absorb
// everything). The free lists survive collections and are not
// randomized under -race, so the budget is zero in every build.
func TestSinkFanoutAllocs(t *testing.T) {
	fx := newSinkFixture(t)
	subA := fx.subscribe("a", 4)
	subB := fx.subscribe("b", 4)
	batch := []shard.Out{fx.out(t, 1, "a", "b")}
	cycle := func() {
		fx.s.sink(batch)
		take(t, subA).release()
		take(t, subB).release()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("fan-out path allocates %.3f allocs/op in steady state, want 0", avg)
	}
}
