package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"gasf/internal/session"
	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// loopReader replays one byte stream forever. A Read stops at the
// stream's end, so frames straddle the buffered reader's refills.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// transmissionFrames encodes n pass-all transmission frames of the
// one-attribute schema, each labeled with the three apps and carrying
// its index as the log offset, back to back.
func transmissionFrames(t *testing.T, schema *tuple.Schema, n int) []byte {
	t.Helper()
	var stream []byte
	for i := 0; i < n; i++ {
		tp := tuple.MustNew(schema, i, time.Unix(1, int64(i)), []float64{float64(i)})
		payload, err := wire.AppendTransmission(binary.LittleEndian.AppendUint64(nil, uint64(i)), tp, []string{"app-a", "app-b", "app-c"})
		if err != nil {
			t.Fatal(err)
		}
		stream = AppendFrame(stream, FrameTransmission, payload)
	}
	return stream
}

// TestReadFrameIntoZeroAllocs gates the read seam every frame loop goes
// through: with the payload buffer at its working size, reading a frame
// from a buffered reader allocates nothing. (The header used to be read
// into a local array that escaped through io.ReadFull: one tiny allocation
// per frame on the client receive, the server ingest and the relay leg.)
func TestReadFrameIntoZeroAllocs(t *testing.T) {
	schema := tuple.MustSchema("v")
	br := bufio.NewReaderSize(&loopReader{data: transmissionFrames(t, schema, 37)}, 512)
	var buf []byte
	read := func() {
		kind, payload, err := ReadFrameInto(br, buf)
		if err != nil || kind != FrameTransmission {
			t.Fatalf("kind %d, err %v", kind, err)
		}
		buf = payload[:cap(payload)]
	}
	for i := 0; i < 100; i++ {
		read()
	}
	if avg := testing.AllocsPerRun(2000, read); avg != 0 {
		t.Errorf("ReadFrameInto allocates %.2f objects per frame, want 0", avg)
	}
}

// TestPublishContextZeroAllocs gates the client publish path: a publish
// encodes into the session's buffer and writes, allocating nothing — per
// tuple or per batch — neither under a context that cannot be cancelled
// nor under one cancellable context passed again and again (whose watcher
// is armed once and kept).
func TestPublishContextZeroAllocs(t *testing.T) {
	schema := tuple.MustSchema("v")
	conn, far := loopbackPair(t)
	go io.Copy(io.Discard, far)
	pub := &Publisher{conn: conn, source: "s1"}
	batch := make([]*tuple.Tuple, 64)
	seq := 0
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{
		{"background", context.Background()},
		{"cancellable", cancellable},
	} {
		publish := func() {
			for i := range batch {
				batch[i] = tuple.MustNew(schema, seq, time.Unix(1, int64(seq)), []float64{1})
				seq++
			}
			if err := pub.PublishBatch(c.ctx, batch[:1]); err != nil {
				t.Fatal(err)
			}
			if err := pub.PublishBatch(c.ctx, batch[1:]); err != nil {
				t.Fatal(err)
			}
		}
		publish()
		// The test's own tuples are 2 allocations each; the session adds none.
		if avg, own := testing.AllocsPerRun(200, publish), float64(2*len(batch)); avg != own {
			t.Errorf("%s context: publishing allocates %.2f objects per round beyond the %v of the tuples themselves", c.name, avg-own, own)
		}
	}
}

// TestRecvIntoZeroAllocs gates the client receive path: a subscriber
// session fed transmission frames over a pipe allocates nothing per
// delivery through RecvInto, neither under a context that cannot be
// cancelled nor under one cancellable context passed again and again
// (whose watcher is armed once and kept).
func TestRecvIntoZeroAllocs(t *testing.T) {
	schema := tuple.MustSchema("v")
	client, feed := net.Pipe()
	defer client.Close()
	stream := transmissionFrames(t, schema, 64)
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		for {
			if _, err := feed.Write(stream); err != nil {
				return
			}
		}
	}()
	defer func() { feed.Close(); <-feederDone }()
	sub := &Subscriber{conn: client, br: bufio.NewReaderSize(client, 32<<10), schema: schema}

	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{
		{"background", context.Background()},
		{"cancellable", cancellable},
	} {
		var d session.Delivery
		recv := func() {
			if err := sub.RecvInto(c.ctx, &d); err != nil {
				t.Fatal(err)
			}
			if len(d.Destinations) != 3 || d.Destinations[2] != "app-c" {
				t.Fatalf("delivery labeled %v", d.Destinations)
			}
		}
		for i := 0; i < 200; i++ { // interner, buffers and watcher reach steady state
			recv()
		}
		if avg := testing.AllocsPerRun(2000, recv); avg != 0 {
			t.Errorf("%s context: RecvInto allocates %.2f objects per delivery, want 0", c.name, avg)
		}
	}

	// The kept watcher still does its job: cancelling unblocks a receive
	// parked on an idle connection, and the session stays usable under
	// another context afterwards.
	idleClient, idleFeed := net.Pipe()
	defer idleClient.Close()
	defer idleFeed.Close()
	idle := &Subscriber{conn: idleClient, br: bufio.NewReaderSize(idleClient, 4<<10), schema: schema}
	ctx, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		var d session.Delivery
		errc <- idle.RecvInto(ctx, &d)
	}()
	stop()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("cancelled receive returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling the context did not unblock the receive")
	}
	go idleFeed.Write(stream[:len(stream)/64])
	var d session.Delivery
	if err := idle.RecvInto(context.Background(), &d); err != nil {
		t.Fatalf("receive after a cancelled one: %v", err)
	}
}

// TestRecvWatcherCancelAndCloseRace runs the kept watcher's two
// concurrent edges under the race detector: a context cancelled, and a
// session closed, while another goroutine is receiving under that
// context. Either must end the receive loop promptly, with the context's
// error when it was the context.
func TestRecvWatcherCancelAndCloseRace(t *testing.T) {
	schema := tuple.MustSchema("v")
	stream := transmissionFrames(t, schema, 64)
	for round := 0; round < 20; round++ {
		client, feed := net.Pipe()
		go func() {
			for {
				if _, err := feed.Write(stream); err != nil {
					return
				}
			}
		}()
		go io.Copy(io.Discard, feed) // a pipe write blocks until read: take the session's goodbye
		sub := &Subscriber{conn: client, br: bufio.NewReaderSize(client, 4<<10), schema: schema}
		ctx, cancel := context.WithCancel(context.Background())
		received := make(chan struct{}, 1)
		errc := make(chan error, 1)
		go func() {
			var d session.Delivery
			for {
				if err := sub.RecvInto(ctx, &d); err != nil {
					errc <- err
					return
				}
				select {
				case received <- struct{}{}:
				default:
				}
			}
		}()
		<-received // the watcher is armed and deliveries are flowing
		byCancel := round%2 == 0
		if byCancel {
			cancel()
		} else {
			sub.Close()
		}
		select {
		case err := <-errc:
			if byCancel && err != context.Canceled {
				t.Fatalf("round %d: cancelled receive returned %v", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: receive loop did not end (cancel=%v)", round, byCancel)
		}
		cancel()
		sub.Close()
		feed.Close()
	}
}
