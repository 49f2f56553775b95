// wire.go is the byte-level message codec beneath the socket transports: a
// framed binary protocol carrying the same tagged, checksummed complex128
// payloads the in-process channel wire moves, plus the control frames a
// multi-process world needs (handshake, job metadata, abort, shutdown).
//
// Frame layout (all integers little-endian):
//
//	off  0  u8   type      (frameData, frameAbort, frameGoodbye, frameConfig, frameHello, framePeers, framePeerHello)
//	off  1  u8   flags     (bit 0: block checksums present)
//	off  2  u16  reserved  (0)
//	off  4  u32  tag
//	off  8  u32  src
//	off 12  u32  dst
//	off 16  u32  count     (data: complex128 elements; control: payload bytes)
//	off 20  u32  epoch     (data frames only; must be 0 on every other type)
//
// The epoch field is the protocol's one versioned widening: FTFFT/1 as
// originally shipped required offset 20 to be zero on every frame, so an old
// decoder confronted with a pipelined (nonzero-epoch) data frame rejects it
// loudly instead of silently mismatching transforms. Control and service
// frames keep the strict-zero rule, preserving the reserved space.
//
//	[32 bytes]     2 × complex128 block checksums, when flags bit 0
//	payload        count × 16 bytes (float64 re, float64 im bits) for
//	               data frames; count raw bytes for control frames
//
// complex128 elements are serialized as the IEEE-754 bit patterns of their
// real and imaginary parts, so a round trip is bit-exact for every value,
// including negative zeros, infinities and NaN payloads — the bit-for-bit
// equality guarantee between in-process and multi-process runs rests on
// this. On a little-endian host that encoding is exactly the memory of a
// []complex128, so the element codec (putElems/getElems) is a plain memory
// copy there: a socket send writes the payload straight from the sender's
// slice, and a receive reads the pooled frame bytes through a typed view.
// Big-endian hosts encode element by element inside the same helpers. The
// pooled frame buffers are 8-byte aligned, so a steady-state exchange
// performs no per-message allocation and never an unaligned typed read.
package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"ftfft/internal/checksum"
)

// Frame types. The service frames (6–8) live in servewire.go.
const (
	frameData    = 1 // a tagged rank-to-rank message
	frameAbort   = 2 // poison pill; payload is the cause, as UTF-8
	frameGoodbye = 3 // clean shutdown from the root process
	frameConfig  = 4 // hub → worker: rank assignment + WorldMeta
	frameHello   = 5 // worker → hub (or client → server): protocol magic

	// Mesh control frames (9–10): the hub hands each worker its peers'
	// advertised listen addresses; workers then dial each other directly and
	// identify themselves with a peer hello. Both are control frames (epoch
	// stays strict-zero) so a v1-era decoder rejects nothing it used to accept.
	framePeers     = 9  // hub → worker: newline-separated rank:addr list
	framePeerHello = 10 // worker → worker: dialing rank (src) introduces itself
)

const (
	frameHeaderLen = 24
	checksumLen    = 32 // 2 × complex128
	elemLen        = 16 // 1 × complex128

	// flagHasCS marks a data frame carrying the two §5 block checksums.
	flagHasCS = 1

	// wireMagic is the hello payload; a version bump changes the suffix.
	wireMagic = "FTFFT/1"

	// maxControlPayload bounds control-frame payloads (error strings,
	// metadata) so a corrupt or hostile peer cannot force a huge allocation.
	maxControlPayload = 1 << 16
)

// frameHeader is one decoded frame header.
type frameHeader struct {
	typ   byte
	flags byte
	tag   int
	src   int
	dst   int
	count int
	epoch uint32 // data frames only; zero on control/service frames
}

// putHeader encodes h into buf[:frameHeaderLen].
func putHeader(buf []byte, h frameHeader) {
	buf[0] = h.typ
	buf[1] = h.flags
	binary.LittleEndian.PutUint16(buf[2:], 0)
	binary.LittleEndian.PutUint32(buf[4:], uint32(h.tag))
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.src))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.dst))
	binary.LittleEndian.PutUint32(buf[16:], uint32(h.count))
	binary.LittleEndian.PutUint32(buf[20:], h.epoch)
	_ = buf[frameHeaderLen-1]
}

// parseHeader decodes and validates buf[:frameHeaderLen]. maxElems bounds a
// data frame's element count (a world-size-derived limit); control frames
// are bounded by maxControlPayload. parseHeader never panics on arbitrary
// bytes — the fuzz target FuzzFrameDecode holds it to that.
func parseHeader(buf []byte, p, maxElems int) (frameHeader, error) {
	if len(buf) < frameHeaderLen {
		return frameHeader{}, fmt.Errorf("mpi: short frame header: %d bytes", len(buf))
	}
	h := frameHeader{
		typ:   buf[0],
		flags: buf[1],
		tag:   int(binary.LittleEndian.Uint32(buf[4:])),
		src:   int(binary.LittleEndian.Uint32(buf[8:])),
		dst:   int(binary.LittleEndian.Uint32(buf[12:])),
		count: int(binary.LittleEndian.Uint32(buf[16:])),
		epoch: binary.LittleEndian.Uint32(buf[20:]),
	}
	// Reserved fields must be zero: the codec is strict, so decode∘encode is
	// the identity on every accepted frame (no information the re-encoder
	// would silently drop) and the reserved space stays usable for future
	// protocol versions. Offset 20 was reserved in the original FTFFT/1 and is
	// now the data-frame epoch — the one deliberate widening — so nonzero
	// values stay rejected on every other frame type.
	if binary.LittleEndian.Uint16(buf[2:]) != 0 {
		return h, fmt.Errorf("mpi: nonzero reserved header fields")
	}
	if h.typ != frameData && h.epoch != 0 {
		return h, fmt.Errorf("mpi: nonzero epoch on non-data frame type %d", h.typ)
	}
	switch h.typ {
	case frameData:
		if h.src < 0 || h.src >= p || h.dst < 0 || h.dst >= p {
			return h, fmt.Errorf("mpi: data frame ranks %d→%d out of range [0,%d)", h.src, h.dst, p)
		}
		if h.count < 0 || h.count > maxElems {
			return h, fmt.Errorf("mpi: data frame payload %d elements exceeds limit %d", h.count, maxElems)
		}
		if h.flags&^flagHasCS != 0 {
			return h, fmt.Errorf("mpi: unknown data frame flags %#x", h.flags)
		}
	case frameAbort, frameGoodbye, frameConfig, frameHello, framePeers, framePeerHello:
		if h.count < 0 || h.count > maxControlPayload {
			return h, fmt.Errorf("mpi: control frame payload %d bytes exceeds limit %d", h.count, maxControlPayload)
		}
	case frameRequest, frameResponse:
		if h.src != 0 || h.dst != 0 {
			return h, fmt.Errorf("mpi: service frame with nonzero ranks %d→%d", h.src, h.dst)
		}
		if h.flags&^(flagHasCS|flagReal) != 0 {
			return h, fmt.Errorf("mpi: unknown service frame flags %#x", h.flags)
		}
		if h.count < 1 || serveElems(h.flags, h.count) > maxElems {
			return h, fmt.Errorf("mpi: service frame payload %d elements outside [1,%d]", h.count, maxElems)
		}
	case frameError:
		if h.src != 0 || h.dst != 0 {
			return h, fmt.Errorf("mpi: service frame with nonzero ranks %d→%d", h.src, h.dst)
		}
		if h.flags&^(flagUncorrectable|flagUnavailable) != 0 {
			return h, fmt.Errorf("mpi: unknown error frame flags %#x", h.flags)
		}
		if h.count < 0 || h.count > maxControlPayload {
			return h, fmt.Errorf("mpi: control frame payload %d bytes exceeds limit %d", h.count, maxControlPayload)
		}
	default:
		return h, fmt.Errorf("mpi: unknown frame type %d", h.typ)
	}
	return h, nil
}

// payloadBytes returns the number of bytes following the header for h.
func (h frameHeader) payloadBytes() int {
	n := h.count
	switch h.typ {
	case frameData:
		n *= elemLen
		if h.flags&flagHasCS != 0 {
			n += checksumLen
		}
	case frameRequest, frameResponse:
		if h.flags&flagReal != 0 {
			n *= 8
		} else {
			n *= elemLen
		}
		if h.flags&flagHasCS != 0 {
			n += checksumLen
		}
		if h.typ == frameRequest {
			n += serveReqMetaLen
		} else {
			n += serveRespMetaLen
		}
	}
	return n
}

// putComplex encodes z at buf[off:off+16].
func putComplex(buf []byte, off int, z complex128) {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(real(z)))
	binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(imag(z)))
}

// getComplex decodes the element at buf[off:off+16].
func getComplex(buf []byte, off int) complex128 {
	re := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
	im := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
	return complex(re, im)
}

// nativeLE reports whether the host stores float64s in the wire's
// little-endian byte order. It picks the element codec once: a memory copy
// when true, the per-element putComplex/getComplex path otherwise.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// elemBytes views x as its in-memory bytes, elemLen per element. On a
// little-endian host those bytes are x's wire encoding.
func elemBytes(x []complex128) []byte {
	if len(x) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), len(x)*elemLen)
}

// elemView views the elemLen-multiple b as complex128 elements. ok is false
// when b is not 8-byte aligned, where a typed view would be illegal.
func elemView(b []byte) (x []complex128, ok bool) {
	if len(b) == 0 {
		return nil, true
	}
	ptr := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(ptr)%unsafe.Alignof(complex128(0)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*complex128)(ptr), len(b)/elemLen), true
}

// putElems encodes x into b[:len(x)·elemLen]. With weights w (len ≥ len(x))
// it also returns the §5 pair of x (see elemPair); nil w returns a zero
// pair.
func putElems(b []byte, x, w []complex128) checksum.Pair {
	b = b[:len(x)*elemLen]
	if nativeLE {
		copy(b, elemBytes(x))
	} else {
		for j, z := range x {
			putComplex(b, j*elemLen, z)
		}
	}
	return elemPair(x, w)
}

// getElems decodes len(x) elements from b into x and, with weights w,
// returns their §5 pair exactly as putElems computes it. On a little-endian
// host an aligned b is read through a typed view, in one sweep with the
// pair.
func getElems(x []complex128, b []byte, w []complex128) checksum.Pair {
	b = b[:len(x)*elemLen]
	if src, ok := elemView(b); ok && nativeLE && w != nil {
		return checksum.GatherPair(x, src, w, len(x), 1)
	}
	if nativeLE {
		copy(elemBytes(x), b)
	} else {
		for j := range x {
			x[j] = getComplex(b, j*elemLen)
		}
	}
	return elemPair(x, w)
}

// elemPair is the read-only §5 pair sweep over x under weights w, zero for
// nil w. The index weight scales the real and imaginary parts of each term
// (checksum.GatherPair's form), which is bit-identical to
// checksum.GeneratePair on finite data.
func elemPair(x, w []complex128) checksum.Pair {
	if w == nil {
		return checksum.Pair{}
	}
	var d1, d2 complex128
	w = w[:len(x)]
	for j, v := range x {
		t := w[j] * v
		f := float64(j)
		d1 += t
		d2 += complex(f*real(t), f*imag(t))
	}
	return checksum.Pair{D1: d1, D2: d2}
}

// wireBuf is a pooled frame-byte buffer. Buffers are pooled by size class
// (power-of-two capacities), so a frame of any size aliases a recycled
// buffer of the next class up instead of allocating — the byte-level
// counterpart of the complex128 payload pool. The bytes are backed by
// complex128 storage, so every buffer starts 8-byte aligned and the element
// region of a data frame (at offset 0 or checksumLen) can be read through a
// typed view.
type wireBuf struct {
	data []byte
}

// wireBufMinShift is the smallest size class (64 bytes); classes above it
// double. Class i holds buffers of capacity 1 << (wireBufMinShift + i).
const (
	wireBufMinShift = 6
	wireBufClasses  = 26 // up to 2 GiB, far beyond any validated frame
)

var wireBufPools [wireBufClasses]sync.Pool

// wireBufClass returns the size class whose capacity holds n bytes.
func wireBufClass(n int) int {
	if n <= 1<<wireBufMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - wireBufMinShift
}

// getWireBuf returns a pooled byte buffer with at least n bytes of capacity,
// sliced to length n.
func getWireBuf(n int) *wireBuf {
	c := wireBufClass(n)
	wb, _ := wireBufPools[c].Get().(*wireBuf)
	if wb == nil {
		words := make([]complex128, 1<<(wireBufMinShift+c)/elemLen)
		wb = &wireBuf{data: elemBytes(words)}
	}
	wb.data = wb.data[:n]
	return wb
}

// putWireBuf recycles a buffer into its size class. nil is a no-op, so
// callers can release unconditionally.
func putWireBuf(wb *wireBuf) {
	if wb == nil {
		return
	}
	wb.data = wb.data[:cap(wb.data)]
	wireBufPools[wireBufClass(len(wb.data))].Put(wb)
}

// readHeader reads and validates one frame header from r into the
// caller-owned scratch buffer (≥ frameHeaderLen bytes); see parseHeader for
// the bounds p and maxElems enforce. The scratch parameter exists because a
// function-local array would escape through the io.Reader interface call —
// one heap allocation per frame on the receive hot path — whereas a buffer
// hoisted outside the caller's read loop escapes once per connection.
func readHeader(r io.Reader, scratch []byte, p, maxElems int) (frameHeader, error) {
	hdr := scratch[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frameHeader{}, err
	}
	return parseHeader(hdr, p, maxElems)
}

// readBody reads h's body into body (grown as needed) and returns it.
func readBody(r io.Reader, body []byte, h frameHeader) ([]byte, error) {
	nb := h.payloadBytes()
	if cap(body) < nb {
		body = make([]byte, nb)
	}
	body = body[:nb]
	_, err := io.ReadFull(r, body)
	return body, err
}

// readDataBody reads a data frame's body into a pooled buffer and returns a
// raw message: the checksums are split out, but the element bytes stay
// serialized, owned by the message, and are decoded directly into the
// destination workspace at the matching receive (decode-in-place) — the
// intermediate complex128 materialization and its copy are gone. The pooled
// buffer is recycled when the receive completes; a caller that cannot
// deliver m must release it with putWireBuf(m.rb).
func readDataBody(r io.Reader, h frameHeader) (Message, error) {
	rb := getWireBuf(h.payloadBytes())
	body := rb.data
	if _, err := io.ReadFull(r, body); err != nil {
		putWireBuf(rb)
		return Message{}, err
	}
	m := Message{Tag: h.tag, Epoch: h.epoch, count: h.count, rb: rb}
	off := 0
	if h.flags&flagHasCS != 0 {
		m.CS[0] = getComplex(body, 0)
		m.CS[1] = getComplex(body, elemLen)
		m.HasCS = true
		off = checksumLen
	}
	m.raw = body[off:]
	return m, nil
}

// encodeDataFrame serializes m as a data frame from src to dst into buf
// (grown as needed) and returns the full frame. The payload region starts at
// payloadOff, so wire-level fault hooks can corrupt the serialized elements
// without touching the header or checksums.
func encodeDataFrame(buf []byte, dst, src int, m Message) (frame []byte, payloadOff int) {
	h := frameHeader{typ: frameData, tag: m.Tag, src: src, dst: dst, count: len(m.Data), epoch: m.Epoch}
	if m.HasCS {
		h.flags = flagHasCS
	}
	total := frameHeaderLen + h.payloadBytes()
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	putHeader(buf, h)
	off := frameHeaderLen
	if m.HasCS {
		putComplex(buf, off, m.CS[0])
		putComplex(buf, off+elemLen, m.CS[1])
		off += checksumLen
	}
	payloadOff = off
	putElems(buf[off:], m.Data, nil)
	return buf, payloadOff
}

// decodeDataBody materializes a Message from a data frame's body (the bytes
// after the header), drawing the payload from the shared pool — the matching
// receive recycles it, exactly like an in-process send.
func decodeDataBody(h frameHeader, body []byte) (Message, error) {
	if len(body) != h.payloadBytes() {
		return Message{}, fmt.Errorf("mpi: data frame body %d bytes, want %d", len(body), h.payloadBytes())
	}
	m := Message{Tag: h.tag, Epoch: h.epoch}
	off := 0
	if h.flags&flagHasCS != 0 {
		m.CS[0] = getComplex(body, 0)
		m.CS[1] = getComplex(body, elemLen)
		m.HasCS = true
		off = checksumLen
	}
	pb := getPayload(h.count)
	getElems(pb.data, body[off:], nil)
	m.Data, m.pb = pb.data, pb
	return m, nil
}

// encodeControlFrame serializes a control frame with a raw byte payload.
func encodeControlFrame(buf []byte, typ byte, payload []byte) []byte {
	total := frameHeaderLen + len(payload)
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	putHeader(buf, frameHeader{typ: typ, count: len(payload)})
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// configPayloadLen is the fixed size of a frameConfig payload:
// u32 rank, u32 p, u64 n, u8 scheme flags, 3 pad bytes, u32 maxRetries
// (full width — a truncated retry budget would silently diverge the worker's
// scheme from the root's), f64 eta.
const configPayloadLen = 4 + 4 + 8 + 1 + 3 + 4 + 8

// encodeConfig serializes the worker's rank assignment plus the job metadata.
func encodeConfig(rank int, meta WorldMeta) []byte {
	buf := make([]byte, configPayloadLen)
	binary.LittleEndian.PutUint32(buf[0:], uint32(rank))
	binary.LittleEndian.PutUint32(buf[4:], uint32(meta.P))
	binary.LittleEndian.PutUint64(buf[8:], uint64(meta.N))
	var flags byte
	if meta.Protected {
		flags |= 1
	}
	if meta.Optimized {
		flags |= 2
	}
	buf[16] = flags
	binary.LittleEndian.PutUint32(buf[20:], uint32(meta.MaxRetries))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(meta.EtaScale))
	return buf
}

// decodeConfig parses a frameConfig payload.
func decodeConfig(buf []byte) (rank int, meta WorldMeta, err error) {
	if len(buf) != configPayloadLen {
		return 0, meta, fmt.Errorf("mpi: config payload %d bytes, want %d", len(buf), configPayloadLen)
	}
	rank = int(binary.LittleEndian.Uint32(buf[0:]))
	meta.P = int(binary.LittleEndian.Uint32(buf[4:]))
	meta.N = int(binary.LittleEndian.Uint64(buf[8:]))
	meta.Protected = buf[16]&1 != 0
	meta.Optimized = buf[16]&2 != 0
	meta.MaxRetries = int(binary.LittleEndian.Uint32(buf[20:]))
	meta.EtaScale = math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))
	if meta.P < 1 || rank < 0 || rank >= meta.P || meta.N < 1 {
		return 0, meta, fmt.Errorf("mpi: config rank %d / p %d / n %d out of range", rank, meta.P, meta.N)
	}
	return rank, meta, nil
}

// readFrame reads one complete frame (header + body) from r, reusing body
// (grown as needed) as scratch for the header bytes too, so a caller that
// threads body through a read loop stays allocation-free in steady state.
// p and maxElems bound data frames; see parseHeader. It never panics on
// arbitrary input and never allocates beyond the declared (validated)
// payload size.
func readFrame(r io.Reader, body []byte, p, maxElems int) (frameHeader, []byte, error) {
	if cap(body) < frameHeaderLen {
		body = make([]byte, frameHeaderLen)
	}
	h, err := readHeader(r, body[:frameHeaderLen], p, maxElems)
	if err != nil {
		return h, body, err
	}
	b, err := readBody(r, body, h)
	return h, b, err
}
