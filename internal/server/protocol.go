// Package server implements the networked streaming service: a TCP
// server that accepts source sessions (publishers streaming wire-encoded
// tuples) and subscriber sessions (applications sending a quality
// specification and receiving their filtered transmission stream), all
// multiplexed onto the sharded group-aware filtering runtime
// (internal/shard) with dynamic group membership (internal/core
// AddFilter/RemoveFilter).
//
// The protocol frames the binary tuple encoding of internal/wire:
//
//	frame:  u8 kind | u32 payload length (little-endian) | payload
//
// A connection opens with exactly one hello frame declaring its role:
//
//	source hello:     name | u16 attr count | attr names   (strings are uvarint length + bytes)
//	subscriber hello: app | source | quality spec (internal/quality notation) | uvarint queue |
//	                  uvarint version | u8 flags | [u64 resume offset] | [edge name]
//
// The server answers hello-ok (carrying the source schema for
// subscribers, empty for sources) or error (a message, then close). After
// the handshake a source streams tuple frames (wire tuple encoding bound
// to the advertised schema) interleaved with heartbeats; a subscriber
// receives transmission frames (u64 log offset + wire transmission
// encoding: destination labels + tuple) and heartbeats. Goodbye announces
// a graceful end of stream in either direction. A source may interleave
// ping frames: the server answers each with a pong once every earlier
// tuple has been submitted to the shard runtime (the Sync barrier). A
// subscriber that sends its goodbye receives a final goodbye back once
// its filter has left the live group, so a departure can be awaited.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gasf/internal/tuple"
	"gasf/internal/wire"
)

// Frame kinds.
const (
	// FrameSourceHello opens a source (publisher) session.
	FrameSourceHello byte = 1
	// FrameSubHello opens a subscriber session.
	FrameSubHello byte = 2
	// FrameHelloOK acknowledges a hello; for subscribers it carries the
	// source schema.
	FrameHelloOK byte = 3
	// FrameError carries a fatal error message; the sender closes after.
	FrameError byte = 4
	// FrameTuple carries one wire-encoded tuple (source -> server).
	FrameTuple byte = 5
	// FrameTransmission carries one labeled transmission (server ->
	// subscriber): its u64 little-endian log offset, then its wire
	// encoding. The offset is the transmission's position in the
	// source's durable log — the checkpoint a resume continues after —
	// and 0 on a server without one.
	FrameTransmission byte = 6
	// FrameHeartbeat is an empty liveness frame.
	FrameHeartbeat byte = 7
	// FrameGoodbye announces a graceful end of stream. An empty payload
	// is a plain end (the source finished); the payload goodbyeDrainTag
	// marks an end forced by server shutdown or drain, which
	// reconnect-aware clients treat as an invitation to re-establish the
	// session against a restarted server.
	FrameGoodbye byte = 8
	// FramePing is a publish barrier (source -> server): the server
	// submits every tuple received before it to the shard ring, then
	// echoes the payload back in a FramePong. When the pong arrives, the
	// pinged tuples are ordered ahead of any membership change a later
	// subscribe or unsubscribe applies — the ordering guarantee behind
	// Source.Sync in the unified broker API.
	FramePing byte = 9
	// FramePong answers a FramePing with the same payload.
	FramePong byte = 10
	// FrameQoS announces a quality-of-service change to a subscriber
	// (server -> subscriber) under the degrade slow-consumer policy: the
	// payload is the u64 little-endian bit pattern of the float64
	// granularity scale now applied to the session's filter (1 = the
	// subscribed quality, larger = coarser). Informational — the
	// delivery stream itself is unchanged in framing, only in content.
	FrameQoS byte = 12
)

// goodbyeDrainTag is the FrameGoodbye payload marking a stream end
// forced by server shutdown or drain rather than by the source
// finishing; clients map it to ErrServerDraining.
const goodbyeDrainTag = "drain"

// goodbyeDrainPayload is the drain tag as a reusable frame payload.
var goodbyeDrainPayload = []byte(goodbyeDrainTag)

// SubProtoVersion is the subscriber protocol version this package
// speaks, and the only one it accepts: every client is built from this
// tree, so a hello from any other version is rejected by name rather
// than read with a layout it does not share. Features a session opts
// into are bits of the hello's flags byte, not versions.
const SubProtoVersion = 4

// Subscriber hello flags.
const (
	// subFlagResume: a u64 resume offset follows the flags.
	subFlagResume byte = 1 << iota
	// subFlagRelay: the hello opens an edge node's upstream leg; the
	// edge's name follows the resume offset (if any).
	subFlagRelay
)

// MaxFramePayload bounds a frame payload; larger frames are rejected as
// malformed (a tuple of 65535 float64 values is ~512KiB).
const MaxFramePayload = 1 << 20

// frameHeaderLen is the encoded size of a frame header.
const frameHeaderLen = 1 + 4

// AppendFrame appends a framed payload to buf.
func AppendFrame(buf []byte, kind byte, payload []byte) []byte {
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// WriteFrame writes one frame, staging it in a pooled encode buffer so
// control-plane writes (hellos, heartbeats, goodbyes, errors) do not
// allocate per frame.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("server: frame payload %d exceeds limit", len(payload))
	}
	bp := wire.GetBuf()
	buf := AppendFrame((*bp)[:0], kind, payload)
	_, err := w.Write(buf)
	*bp = buf
	wire.PutBuf(bp)
	return err
}

// parseFrameHeader splits an encoded frame header into the frame kind and
// the payload length, rejecting lengths over MaxFramePayload.
func parseFrameHeader(hdr []byte) (kind byte, n uint32, err error) {
	n = binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFramePayload {
		return 0, 0, fmt.Errorf("server: frame payload %d exceeds limit", n)
	}
	return hdr[0], n, nil
}

// ReadFrame reads one frame straight off r, consuming exactly the frame's
// bytes and allocating its payload. It is for one-off reads on an
// unbuffered connection (hellos, hello answers, a publisher's pong);
// read loops use ReadFrameInto.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	kind, n, err := parseFrameHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, truncatedPayload(err)
	}
	return kind, payload, nil
}

// ReadFrameInto reads one frame from a read loop's buffered reader into a
// caller-recycled payload buffer: the returned payload aliases buf (grown
// as needed) and is valid only until the next call with the same buffer.
// The header is parsed in place in the reader's buffer, so a frame whose
// payload fits buf costs no allocation; the payload is returned even on
// error so the caller can carry the grown buffer forward. A stream that
// ends between frames reports io.EOF, one that ends inside a frame
// io.ErrUnexpectedEOF.
func ReadFrameInto(br *bufio.Reader, buf []byte) (byte, []byte, error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, buf, err
	}
	kind, n, err := parseFrameHeader(hdr)
	if err != nil {
		return 0, buf, err
	}
	br.Discard(frameHeaderLen)
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, buf, truncatedPayload(err)
	}
	return kind, buf, nil
}

// truncatedPayload wraps a payload read error. A stream that ends before
// the first payload byte still ends inside the frame its header began,
// so a bare io.EOF becomes io.ErrUnexpectedEOF: read loops treat io.EOF
// as a clean close.
func truncatedPayload(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("server: truncated frame payload: %w", err)
}

// beginFrame starts encoding a frame in place at the start of buf: it
// appends the kind and a length placeholder for endFrame to patch. The
// frame must begin at buf[0].
func beginFrame(buf []byte, kind byte) []byte {
	return append(buf, kind, 0, 0, 0, 0)
}

// endFrame patches the payload length of a frame started with beginFrame.
func endFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(buf)-frameHeaderLen))
	return buf
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString consumes a uvarint-length-prefixed string.
func readString(data []byte) (string, int, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 {
		return "", 0, fmt.Errorf("server: bad string length")
	}
	if uint64(len(data)-n) < l {
		return "", 0, fmt.Errorf("server: truncated string (%d of %d bytes)", len(data)-n, l)
	}
	return string(data[n : n+int(l)]), n + int(l), nil
}

// EncodeSourceHello encodes a source hello payload.
func EncodeSourceHello(name string, schema *tuple.Schema) ([]byte, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty source name")
	}
	if schema == nil {
		return nil, fmt.Errorf("server: nil schema")
	}
	buf := appendString(nil, name)
	return appendSchema(buf, schema)
}

// DecodeSourceHello decodes a source hello payload.
func DecodeSourceHello(data []byte) (name string, schema *tuple.Schema, err error) {
	name, n, err := readString(data)
	if err != nil {
		return "", nil, err
	}
	if name == "" {
		return "", nil, fmt.Errorf("server: empty source name")
	}
	schema, _, err = decodeSchema(data[n:])
	if err != nil {
		return "", nil, err
	}
	return name, schema, nil
}

// SubHello is a subscriber hello. Resume distinguishes "no resume"
// from "resume from offset 0". A non-empty RelayEdge marks an edge
// node's upstream leg and names the edge it belongs to; the App and Spec
// of such a leg are the real group identity of the local subscribers it
// serves, so the core derives exactly the membership a single node
// would, and the destination labels inside every transmission stay
// byte-identical across topologies.
type SubHello struct {
	App, Source, Spec string
	// Queue requests a server-side send-queue depth; 0 accepts the
	// server default.
	Queue      int
	Resume     bool
	ResumeFrom uint64
	RelayEdge  string
}

// EncodeSubHello encodes a subscriber hello payload.
func EncodeSubHello(h SubHello) ([]byte, error) {
	if h.App == "" || h.Source == "" || h.Spec == "" {
		return nil, fmt.Errorf("server: subscriber hello needs app, source and spec")
	}
	if h.Queue < 0 {
		return nil, fmt.Errorf("server: negative queue depth %d", h.Queue)
	}
	var flags byte
	if h.Resume {
		flags |= subFlagResume
	}
	if h.RelayEdge != "" {
		flags |= subFlagRelay
	}
	buf := appendString(nil, h.App)
	buf = appendString(buf, h.Source)
	buf = appendString(buf, h.Spec)
	buf = binary.AppendUvarint(buf, uint64(h.Queue))
	buf = binary.AppendUvarint(buf, SubProtoVersion)
	buf = append(buf, flags)
	if h.Resume {
		buf = binary.LittleEndian.AppendUint64(buf, h.ResumeFrom)
	}
	if h.RelayEdge != "" {
		buf = appendString(buf, h.RelayEdge)
	}
	return buf, nil
}

// DecodeSubHello decodes a subscriber hello payload. A hello of any
// other protocol version than SubProtoVersion is rejected with both
// versions named.
func DecodeSubHello(data []byte) (h SubHello, err error) {
	app, n, err := readString(data)
	if err != nil {
		return SubHello{}, err
	}
	source, m, err := readString(data[n:])
	if err != nil {
		return SubHello{}, err
	}
	spec, k, err := readString(data[n+m:])
	if err != nil {
		return SubHello{}, err
	}
	rest := data[n+m+k:]
	q, qn := binary.Uvarint(rest)
	if qn <= 0 || q > 1<<20 {
		return SubHello{}, fmt.Errorf("server: bad queue depth in subscriber hello")
	}
	rest = rest[qn:]
	if app == "" || source == "" || spec == "" {
		return SubHello{}, fmt.Errorf("server: subscriber hello needs app, source and spec")
	}
	v, vn := binary.Uvarint(rest)
	if vn <= 0 {
		return SubHello{}, fmt.Errorf("server: subscriber hello carries no protocol version (this server speaks %d)", SubProtoVersion)
	}
	if v != SubProtoVersion {
		return SubHello{}, fmt.Errorf("server: subscriber hello speaks protocol version %d, this server speaks %d", v, SubProtoVersion)
	}
	rest = rest[vn:]
	if len(rest) < 1 {
		return SubHello{}, fmt.Errorf("server: truncated flags in subscriber hello")
	}
	flags := rest[0]
	rest = rest[1:]
	if flags&^(subFlagResume|subFlagRelay) != 0 {
		return SubHello{}, fmt.Errorf("server: unknown flags %#x in subscriber hello", flags)
	}
	h = SubHello{App: app, Source: source, Spec: spec, Queue: int(q)}
	if flags&subFlagResume != 0 {
		if len(rest) < 8 {
			return SubHello{}, fmt.Errorf("server: truncated resume offset in subscriber hello")
		}
		h.Resume = true
		h.ResumeFrom = binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
	}
	if flags&subFlagRelay != 0 {
		edge, en, err := readString(rest)
		if err != nil {
			return SubHello{}, fmt.Errorf("server: relay edge name: %w", err)
		}
		if edge == "" {
			return SubHello{}, fmt.Errorf("server: empty relay edge name in subscriber hello")
		}
		h.RelayEdge = edge
		rest = rest[en:]
	}
	if len(rest) != 0 {
		return SubHello{}, fmt.Errorf("server: trailing bytes in subscriber hello")
	}
	return h, nil
}

// appendSchema appends a schema (u16 count + names).
func appendSchema(buf []byte, s *tuple.Schema) ([]byte, error) {
	names := s.Names()
	if len(names) > 1<<16-1 {
		return nil, fmt.Errorf("server: schema with %d attributes exceeds the u16 limit", len(names))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(names)))
	for _, n := range names {
		buf = appendString(buf, n)
	}
	return buf, nil
}

// decodeSchema consumes an encoded schema.
func decodeSchema(data []byte) (*tuple.Schema, int, error) {
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("server: truncated schema header")
	}
	count := int(binary.LittleEndian.Uint16(data))
	off := 2
	names := make([]string, 0, count)
	for i := 0; i < count; i++ {
		name, n, err := readString(data[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("server: schema attribute %d: %w", i, err)
		}
		names = append(names, name)
		off += n
	}
	s, err := tuple.NewSchema(names...)
	if err != nil {
		return nil, 0, fmt.Errorf("server: %w", err)
	}
	return s, off, nil
}

// EncodeQoS encodes a FrameQoS payload.
func EncodeQoS(scale float64) []byte {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], math.Float64bits(scale))
	return p[:]
}

// DecodeQoS decodes a FrameQoS payload.
func DecodeQoS(data []byte) (float64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("server: bad QoS frame length %d", len(data))
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(data))
	if !(scale > 0) || math.IsInf(scale, 0) {
		return 0, fmt.Errorf("server: bad QoS scale %g", scale)
	}
	return scale, nil
}

// EncodeSourceHelloOK encodes the source hello-ok payload. A non-durable
// server sends an empty payload (also what pre-durability servers sent,
// so old publishers need no change). A durable server advertises a
// resume hint: the highest tuple sequence its log holds for this source
// (maxSeq < 0 when the log is empty), which a reconnecting publisher
// uses to trim its republish window to exactly the tuples the log never
// saw.
func EncodeSourceHelloOK(maxSeq int64, durable bool) []byte {
	if !durable {
		return nil
	}
	if maxSeq < 0 {
		return []byte{0}
	}
	buf := make([]byte, 1, 9)
	buf[0] = 1
	return binary.LittleEndian.AppendUint64(buf, uint64(maxSeq))
}

// DecodeSourceHelloOK decodes a source hello-ok payload; durable is
// false for the empty (non-durable or legacy) form, and maxSeq is -1
// when a durable log holds nothing for the source.
func DecodeSourceHelloOK(data []byte) (maxSeq int64, durable bool, err error) {
	switch {
	case len(data) == 0:
		return 0, false, nil
	case data[0] == 0 && len(data) == 1:
		return -1, true, nil
	case data[0] == 1 && len(data) == 9:
		return int64(binary.LittleEndian.Uint64(data[1:])), true, nil
	}
	return 0, false, fmt.Errorf("server: malformed source hello-ok (%d bytes)", len(data))
}

// EncodeSchema encodes a schema payload (the hello-ok body sent to
// subscribers).
func EncodeSchema(s *tuple.Schema) ([]byte, error) { return appendSchema(nil, s) }

// DecodeSchema decodes a schema payload.
func DecodeSchema(data []byte) (*tuple.Schema, error) {
	s, _, err := decodeSchema(data)
	return s, err
}
