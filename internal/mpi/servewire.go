// servewire.go extends the wire.go codec with the FFT-service frames: a
// client submits one transform as a request frame and receives either a
// response frame (the spectrum plus the aggregated fault-tolerance report)
// or an error frame (the repair-or-reject contract's "reject" arm). The
// service frames reuse wire.go's machinery wholesale — the 24-byte header
// with its tag field (the request id), the optional §5 block checksum pair,
// the bit-exact complex128 element encoding, and the bounds-validated
// parseHeader that never panics on hostile input.
//
// Request frame (type 6):
//
//	header      tag = request id, src = dst = 0, count = elements
//	            flags bit 0: checksums present; bit 1: real payload
//	            (count float64 samples instead of complex128 elements)
//	meta  40 B  u8 op, u8 protection, u8 ndims, u8 reserved,
//	            u32 n (logical transform size), 8 × u32 dims
//	[32 B]      2 × complex128 block checksums, when flags bit 0
//	payload     count × 16 B complex elements, or count × 8 B float64
//	            samples when flags bit 1
//
// Response frame (type 7): same shape with a 24-byte report meta block
// (five u32 fault-tolerance counters + flags) instead of the request meta.
//
// Error frame (type 8): control-sized; tag = request id, payload = the
// rendered error, flags bit 1 = uncorrectable (the ABFT reject), bit 2 =
// unavailable (server draining).
//
// Checksums for a real payload treat the (always even-length) float64
// vector as count/2 complex128 pairs, so the same single-element location
// and repair algebra covers both payload kinds; a "repair" then heals one
// adjacent sample pair.
package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"ftfft/internal/checksum"
)

// Service frame types, continuing the wire.go enum.
const (
	frameRequest  = 6 // client → server: one transform request
	frameResponse = 7 // server → client: spectrum + aggregated report
	frameError    = 8 // server → client: request rejected; payload is why
)

// Service frame flags. flagHasCS (bit 0) is shared with data frames.
const (
	// flagReal marks a request/response payload of float64 samples.
	flagReal = 2
	// flagUncorrectable marks an error frame as the ABFT reject: the
	// transform (or the request payload itself) was corrupted beyond the
	// schemes' repair capability.
	flagUncorrectable = 2
	// flagUnavailable marks an error frame sent while the server drains:
	// the request was refused before execution, not rejected by ABFT.
	flagUnavailable = 4
)

// ServeOp selects the transform a request runs.
type ServeOp byte

const (
	// OpForward is an n-point forward complex DFT.
	OpForward ServeOp = 1
	// OpInverse is an n-point inverse complex DFT (1/n normalization).
	OpInverse ServeOp = 2
	// OpRealForward is an RFFT: n real samples → n/2+1 spectrum bins.
	OpRealForward ServeOp = 3
	// OpRealInverse is an IRFFT: n/2+1 bins → n real samples.
	OpRealInverse ServeOp = 4
)

func (o ServeOp) String() string {
	switch o {
	case OpForward:
		return "forward"
	case OpInverse:
		return "inverse"
	case OpRealForward:
		return "real-forward"
	case OpRealInverse:
		return "real-inverse"
	default:
		return fmt.Sprintf("ServeOp(%d)", int(o))
	}
}

const (
	// MaxServeDims bounds the N-D geometry a request may carry; the fixed
	// meta block keeps payload sizes computable from the header alone.
	MaxServeDims = 8

	// ServeMagic is the service handshake payload (a hello frame from the
	// client; the server's welcome appends its element limit). Distinct
	// from the rank-world wireMagic so a worker dialing a server — or vice
	// versa — fails the handshake instead of misbehaving later.
	ServeMagic = "FTSRV/1"

	serveReqMetaLen  = 4 + 4 + 4*MaxServeDims // op/prot/ndims/res + n + dims
	serveRespMetaLen = 5*4 + 4                // five counters + flags word
)

// ServeReport is the wire form of a transform's fault-tolerance report: the
// aggregated core.Report counters a response carries as metadata, extended
// by the serve layer with any wire-level repairs it performed on the
// request payload.
type ServeReport struct {
	Detections         int
	CompRecomputations int
	MemCorrections     int
	TwiddleCorrections int
	FullRestarts       int
	Uncorrectable      bool
}

// ServeRequest is one decoded transform request. Exactly one of Data / Real
// is populated, matching Op. Dims is nil for 1-D requests.
type ServeRequest struct {
	ID         int // echoed as the response's ID (the frame tag)
	Op         ServeOp
	Protection byte
	N          int   // logical transform size
	Dims       []int // N-D geometry; nil means 1-D
	Data       []complex128
	Real       []float64
	CS         [2]complex128
	HasCS      bool

	pb  *payload      // pooled backing buffer behind Data
	fpb *floatPayload // pooled backing buffer behind Real
}

// Release recycles the request's pooled payload buffer. Call it once the
// payload has been consumed; Data/Real must not be used afterwards.
func (r *ServeRequest) Release() {
	if r.pb != nil {
		payloads.Put(r.pb)
		r.pb, r.Data = nil, nil
	}
	if r.fpb != nil {
		floatPayloads.Put(r.fpb)
		r.fpb, r.Real = nil, nil
	}
}

// ServeResponse is one transform response: the output payload plus the
// aggregated report. Exactly one of Data / Real is populated.
type ServeResponse struct {
	ID     int
	Report ServeReport
	Data   []complex128
	Real   []float64
	CS     [2]complex128
	HasCS  bool
}

// ServeFrame is one validated service-frame header, as returned by
// ReadServeFrame. Type is one of ServeFrameHello, ServeFrameRequest,
// ServeFrameResponse, ServeFrameError, ServeFrameGoodbye.
type ServeFrame struct {
	Type  byte
	Flags byte
	ID    int // the tag field: request id on request/response/error frames
	Count int
}

// Exported service frame types for ReadServeFrame dispatch.
const (
	ServeFrameHello    = frameHello
	ServeFrameRequest  = frameRequest
	ServeFrameResponse = frameResponse
	ServeFrameError    = frameError
	ServeFrameGoodbye  = frameGoodbye
)

// ReadServeFrame reads one complete service frame from r, reusing body
// (grown as needed). maxElems bounds request/response payloads in
// complex128-equivalent elements (a real payload of 2·maxElems float64
// samples occupies the same bytes). Like readFrame, it never panics on
// arbitrary input and never allocates beyond the validated payload size.
func ReadServeFrame(r io.Reader, body []byte, maxElems int) (ServeFrame, []byte, error) {
	h, body, err := readFrame(r, body, 1, maxElems)
	if err != nil {
		return ServeFrame{}, body, err
	}
	return ServeFrame{Type: h.typ, Flags: h.flags, ID: h.tag, Count: h.count}, body, nil
}

// serveElems returns the complex128-equivalent element count of a
// request/response frame (real payloads pack two samples per element).
func serveElems(flags byte, count int) int {
	if flags&flagReal != 0 {
		return (count + 1) / 2
	}
	return count
}

// AppendServeHello appends the client's handshake hello frame to buf.
func AppendServeHello(buf []byte) []byte {
	return append(buf, encodeControlFrame(nil, frameHello, []byte(ServeMagic))...)
}

// AppendServeWelcome appends the server's handshake reply: the magic plus
// the server's per-request element limit, which the client enforces on its
// own submissions.
func AppendServeWelcome(buf []byte, maxElems int) []byte {
	payload := make([]byte, len(ServeMagic)+4)
	copy(payload, ServeMagic)
	binary.LittleEndian.PutUint32(payload[len(ServeMagic):], uint32(maxElems))
	return append(buf, encodeControlFrame(nil, frameHello, payload)...)
}

// DecodeServeWelcome parses a server welcome payload.
func DecodeServeWelcome(body []byte) (maxElems int, err error) {
	if len(body) != len(ServeMagic)+4 || string(body[:len(ServeMagic)]) != ServeMagic {
		return 0, fmt.Errorf("mpi: not an FFT service (welcome %q)", body)
	}
	maxElems = int(binary.LittleEndian.Uint32(body[len(ServeMagic):]))
	if maxElems < 1 {
		return 0, fmt.Errorf("mpi: service welcome advertises element limit %d", maxElems)
	}
	return maxElems, nil
}

// IsServeHello reports whether a hello frame's payload carries the service
// magic (a client handshake, as opposed to a rank-world worker's hello).
func IsServeHello(body []byte) bool { return string(body) == ServeMagic }

// AppendServeGoodbye appends the drain/shutdown notice frame.
func AppendServeGoodbye(buf []byte) []byte {
	return append(buf, encodeControlFrame(nil, frameGoodbye, nil)...)
}

// serveFrameSize returns the full length of a request/response frame.
func serveFrameSize(typ, flags byte, count int) int {
	h := frameHeader{typ: typ, flags: flags, count: count}
	return frameHeaderLen + h.payloadBytes()
}

// AppendServeRequestPair appends req as one request frame to buf and returns
// the extended buffer plus the offset of the serialized element payload (the
// wire-fault injection region). The §5 block-checksum pair is generated
// with the payload serialization: putElems's pair for a complex payload
// (equal to checksum.GeneratePair bit for bit on finite data), a fused
// encode sweep in floatPair's sample-pair order for a real one. w must hold len(Data) weights for a complex payload
// or len(Real)/2 for a real one. req.CS and req.HasCS are set to the
// generated pair.
func AppendServeRequestPair(buf []byte, req *ServeRequest, w []complex128) (frame []byte, payloadOff int) {
	req.HasCS = true
	flags := byte(flagHasCS)
	count := len(req.Data)
	if req.Real != nil {
		flags |= flagReal
		count = len(req.Real)
	}
	start := len(buf)
	total := serveFrameSize(frameRequest, flags, count)
	buf = appendZeros(buf, total)
	b := buf[start:]
	putHeader(b, frameHeader{typ: frameRequest, flags: flags, tag: req.ID, count: count})
	off := frameHeaderLen
	b[off] = byte(req.Op)
	b[off+1] = req.Protection
	b[off+2] = byte(len(req.Dims))
	binary.LittleEndian.PutUint32(b[off+4:], uint32(req.N))
	for i, d := range req.Dims {
		binary.LittleEndian.PutUint32(b[off+8+4*i:], uint32(d))
	}
	off += serveReqMetaLen
	csOff := off
	off += checksumLen
	payloadOff = start + off
	var pr checksum.Pair
	if flags&flagReal != 0 {
		pr = putFloatsPair(b, off, req.Real, w)
	} else {
		pr = putElems(b[off:], req.Data, w)
	}
	req.CS = [2]complex128{pr.D1, pr.D2}
	putComplex(b, csOff, pr.D1)
	putComplex(b, csOff+elemLen, pr.D2)
	return buf, payloadOff
}

// putFloatsPair serializes x at b[off:] while accumulating the pair over
// adjacent sample pairs, in floatPair's exact summation order. len(x) must
// be ≥ 2·len(w); a trailing unpaired sample (never present on valid
// payloads) is serialized but not summed.
func putFloatsPair(b []byte, off int, x []float64, w []complex128) checksum.Pair {
	var d1, d2 complex128
	for j := range w {
		v0, v1 := x[2*j], x[2*j+1]
		putFloat(b, off, v0)
		putFloat(b, off+8, v1)
		off += 16
		t := w[j] * complex(v0, v1)
		d1 += t
		d2 += complex(float64(j), 0) * t
	}
	for k := 2 * len(w); k < len(x); k++ {
		putFloat(b, off, x[k])
		off += 8
	}
	return checksum.Pair{D1: d1, D2: d2}
}

// DecodeServeRequestPair materializes a request from a validated frame's
// body; the payload is drawn from the shared pool, so call Release when
// done. The §5 verification sweep is fused into the payload decode: when the
// frame carries checksums (and weightsFor is non-nil), the receiver-side
// pair is computed during the single decode pass, in the sender's form
// (getElems: equal to a separate GeneratePair sweep on finite data) or the
// sample-pair order of a real payload. weightsFor returns the
// cached weight vector for a given length — called with the element count
// for complex payloads, count/2 for real ones — and only when the frame
// carries checksums. curOK reports whether cur was computed.
func DecodeServeRequestPair(f ServeFrame, body []byte, weightsFor func(n int) []complex128) (req *ServeRequest, cur checksum.Pair, curOK bool, err error) {
	h := frameHeader{typ: f.Type, flags: f.Flags, tag: f.ID, count: f.Count}
	if f.Type != frameRequest || len(body) != h.payloadBytes() {
		return nil, cur, false, fmt.Errorf("mpi: request frame body %d bytes, want %d", len(body), h.payloadBytes())
	}
	if body[3] != 0 {
		return nil, cur, false, fmt.Errorf("mpi: request frame with nonzero reserved meta byte %#x", body[3])
	}
	req = &ServeRequest{
		ID:         f.ID,
		Op:         ServeOp(body[0]),
		Protection: body[1],
		N:          int(binary.LittleEndian.Uint32(body[4:])),
	}
	nd := int(body[2])
	if nd > MaxServeDims {
		return nil, cur, false, fmt.Errorf("mpi: request carries %d dims, limit %d", nd, MaxServeDims)
	}
	if nd > 0 {
		req.Dims = make([]int, nd)
		for i := range req.Dims {
			req.Dims[i] = int(binary.LittleEndian.Uint32(body[8+4*i:]))
		}
	}
	for i := nd; i < MaxServeDims; i++ {
		if binary.LittleEndian.Uint32(body[8+4*i:]) != 0 {
			return nil, cur, false, fmt.Errorf("mpi: request frame with nonzero unused dim slot %d", i)
		}
	}
	off := serveReqMetaLen
	if f.Flags&flagHasCS != 0 {
		req.CS[0] = getComplex(body, off)
		req.CS[1] = getComplex(body, off+elemLen)
		req.HasCS = true
		off += checksumLen
	}
	fuse := req.HasCS && weightsFor != nil
	if f.Flags&flagReal != 0 {
		req.fpb = getFloatPayload(f.Count)
		req.Real = req.fpb.data
		if fuse {
			cur = getFloatsPair(body, off, req.Real, weightsFor(f.Count/2))
			curOK = true
		} else {
			for i := range req.Real {
				req.Real[i] = getFloat(body, off)
				off += 8
			}
		}
	} else {
		req.pb = getPayload(f.Count)
		req.Data = req.pb.data
		if fuse {
			cur = getElems(req.Data, body[off:], weightsFor(f.Count))
			curOK = true
		} else {
			getElems(req.Data, body[off:], nil)
		}
	}
	return req, cur, curOK, nil
}

// getFloatsPair decodes len(x) samples from body[off:] into x while
// accumulating the pair over adjacent sample pairs, in floatPair's exact
// summation order. A trailing unpaired sample (odd count — rejected later by
// request validation) is decoded but not summed.
func getFloatsPair(body []byte, off int, x []float64, w []complex128) checksum.Pair {
	var d1, d2 complex128
	for j := range w {
		v0 := getFloat(body, off)
		v1 := getFloat(body, off+8)
		off += 16
		x[2*j], x[2*j+1] = v0, v1
		t := w[j] * complex(v0, v1)
		d1 += t
		d2 += complex(float64(j), 0) * t
	}
	for k := 2 * len(w); k < len(x); k++ {
		x[k] = getFloat(body, off)
		off += 8
	}
	return checksum.Pair{D1: d1, D2: d2}
}

// AppendServeResponsePair appends resp as one response frame to buf,
// returning the extended buffer and the serialized element payload's
// offset, with the §5 pair generated with the payload serialization (see
// AppendServeRequestPair). w must hold
// len(Data) weights for a complex payload or len(Real)/2 for a real one.
// resp.CS and resp.HasCS are set to the generated pair.
func AppendServeResponsePair(buf []byte, resp *ServeResponse, w []complex128) (frame []byte, payloadOff int) {
	resp.HasCS = true
	flags := byte(flagHasCS)
	count := len(resp.Data)
	if resp.Real != nil {
		flags |= flagReal
		count = len(resp.Real)
	}
	start := len(buf)
	total := serveFrameSize(frameResponse, flags, count)
	buf = appendZeros(buf, total)
	b := buf[start:]
	putHeader(b, frameHeader{typ: frameResponse, flags: flags, tag: resp.ID, count: count})
	off := frameHeaderLen
	putCounter := func(v int) {
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
		off += 4
	}
	putCounter(resp.Report.Detections)
	putCounter(resp.Report.CompRecomputations)
	putCounter(resp.Report.MemCorrections)
	putCounter(resp.Report.TwiddleCorrections)
	putCounter(resp.Report.FullRestarts)
	if resp.Report.Uncorrectable {
		b[off] = 1
	}
	off += 4
	csOff := off
	off += checksumLen
	payloadOff = start + off
	var pr checksum.Pair
	if flags&flagReal != 0 {
		pr = putFloatsPair(b, off, resp.Real, w)
	} else {
		pr = putElems(b[off:], resp.Data, w)
	}
	resp.CS = [2]complex128{pr.D1, pr.D2}
	putComplex(b, csOff, pr.D1)
	putComplex(b, csOff+elemLen, pr.D2)
	return buf, payloadOff
}

// DecodeServeResponseIntoPair parses a response frame's body, writing the
// element payload directly into data (complex responses, len ≥ Count) or
// rdata (real responses, len ≥ Count) — the client decodes straight into
// the caller's destination buffer, allocation-free — with the §5
// verification sweep fused into the payload decode (see
// DecodeServeRequestPair). weightsFor is called with the element count for
// complex payloads, count/2 for real ones, and only when the frame carries
// checksums; curOK reports whether cur was computed.
func DecodeServeResponseIntoPair(f ServeFrame, body []byte, data []complex128, rdata []float64, weightsFor func(n int) []complex128) (ServeResponse, checksum.Pair, bool, error) {
	var cur checksum.Pair
	h := frameHeader{typ: f.Type, flags: f.Flags, tag: f.ID, count: f.Count}
	if f.Type != frameResponse || len(body) != h.payloadBytes() {
		return ServeResponse{}, cur, false, fmt.Errorf("mpi: response frame body %d bytes, want %d", len(body), h.payloadBytes())
	}
	resp := ServeResponse{ID: f.ID}
	off := 0
	getCounter := func() int {
		v := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		return v
	}
	resp.Report.Detections = getCounter()
	resp.Report.CompRecomputations = getCounter()
	resp.Report.MemCorrections = getCounter()
	resp.Report.TwiddleCorrections = getCounter()
	resp.Report.FullRestarts = getCounter()
	switch binary.LittleEndian.Uint32(body[off:]) {
	case 0:
	case 1:
		resp.Report.Uncorrectable = true
	default:
		return ServeResponse{}, cur, false, fmt.Errorf("mpi: response frame with invalid report flags word")
	}
	off += 4
	if f.Flags&flagHasCS != 0 {
		resp.CS[0] = getComplex(body, off)
		resp.CS[1] = getComplex(body, off+elemLen)
		resp.HasCS = true
		off += checksumLen
	}
	fuse := resp.HasCS && weightsFor != nil
	curOK := false
	if f.Flags&flagReal != 0 {
		if len(rdata) < f.Count {
			return ServeResponse{}, cur, false, fmt.Errorf("mpi: real response of %d samples into buffer of %d", f.Count, len(rdata))
		}
		resp.Real = rdata[:f.Count]
		if fuse {
			cur = getFloatsPair(body, off, resp.Real, weightsFor(f.Count/2))
			curOK = true
		} else {
			for i := range resp.Real {
				resp.Real[i] = getFloat(body, off)
				off += 8
			}
		}
	} else {
		if len(data) < f.Count {
			return ServeResponse{}, cur, false, fmt.Errorf("mpi: response of %d elements into buffer of %d", f.Count, len(data))
		}
		resp.Data = data[:f.Count]
		if fuse {
			cur = getElems(resp.Data, body[off:], weightsFor(f.Count))
			curOK = true
		} else {
			getElems(resp.Data, body[off:], nil)
		}
	}
	return resp, cur, curOK, nil
}

// AppendServeError appends an error frame: the reject arm of the service
// contract. uncorrectable marks an ABFT reject (the client surfaces
// core.ErrUncorrectable); unavailable marks a drain-time refusal.
func AppendServeError(buf []byte, id int, uncorrectable, unavailable bool, msg string) []byte {
	if len(msg) > maxControlPayload {
		msg = msg[:maxControlPayload]
	}
	flags := byte(0)
	if uncorrectable {
		flags |= flagUncorrectable
	}
	if unavailable {
		flags |= flagUnavailable
	}
	start := len(buf)
	buf = appendZeros(buf, frameHeaderLen+len(msg))
	b := buf[start:]
	putHeader(b, frameHeader{typ: frameError, flags: flags, tag: id, count: len(msg)})
	copy(b[frameHeaderLen:], msg)
	return buf
}

// DecodeServeError parses an error frame's body against its header flags.
func DecodeServeError(f ServeFrame, body []byte) (msg string, uncorrectable, unavailable bool) {
	return string(body), f.Flags&flagUncorrectable != 0, f.Flags&flagUnavailable != 0
}

// appendZeros extends buf by n zero bytes, reusing capacity when available.
func appendZeros(buf []byte, n int) []byte {
	start := len(buf)
	if cap(buf)-start >= n {
		buf = buf[:start+n]
		zero := buf[start:]
		for i := range zero {
			zero[i] = 0
		}
		return buf
	}
	return append(buf, make([]byte, n)...)
}

// floatPayload is a pooled real-sample buffer, the float64 counterpart of
// the complex payload pool.
type floatPayload struct {
	data []float64
}

var floatPayloads = sync.Pool{New: func() any { return new(floatPayload) }}

func getFloatPayload(n int) *floatPayload {
	pb := floatPayloads.Get().(*floatPayload)
	if cap(pb.data) < n {
		pb.data = make([]float64, n)
	}
	pb.data = pb.data[:n]
	return pb
}

// putFloat encodes v at buf[off:off+8].
func putFloat(buf []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
}

// getFloat decodes the float64 at buf[off:off+8].
func getFloat(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}
