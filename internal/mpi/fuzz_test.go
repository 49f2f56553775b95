package mpi

import (
	"bytes"
	"testing"

	"ftfft/internal/checksum"
)

// FuzzFrameDecode feeds arbitrary byte streams to the frame decoder: it must
// never panic, never allocate beyond the validated payload bound, and — when
// it does accept a data frame — produce a message it can re-encode to the
// identical bytes (decode∘encode is the identity on valid frames).
func FuzzFrameDecode(f *testing.F) {
	seed, _ := encodeDataFrame(nil, 2, 1, Message{
		Tag:  3,
		Data: []complex128{1 + 2i, -3.5i, 0},
		CS:   [2]complex128{4, 5i}, HasCS: true,
	})
	f.Add(seed)
	f.Add(encodeControlFrame(nil, frameAbort, []byte("boom")))
	f.Add(encodeControlFrame(nil, frameConfig, encodeConfig(1, WorldMeta{N: 64, P: 4})))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, frameHeaderLen+8))
	// Service frames: request (complex and real payloads), response, error.
	reqSeed, _ := AppendServeRequestPair(nil, &ServeRequest{
		ID: 7, Op: OpForward, Protection: 5, N: 4,
		Data: []complex128{1, 2i, -3, 4 + 4i},
	}, checksum.Weights(4))
	f.Add(reqSeed)
	realSeed, _ := AppendServeRequestPair(nil, &ServeRequest{
		ID: 8, Op: OpRealForward, Protection: 0, N: 4,
		Real: []float64{1, -2, 3, -4},
	}, checksum.Weights(2))
	f.Add(realSeed)
	respSeed, _ := AppendServeResponsePair(nil, &ServeResponse{
		ID: 7, Report: ServeReport{Detections: 1, MemCorrections: 1},
		Data: []complex128{5, 6i},
	}, checksum.Weights(2))
	f.Add(respSeed)
	f.Add(AppendServeError(nil, 9, true, false, "uncorrectable"))

	const p, maxElems = 8, 1 << 10
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var body []byte
		for {
			h, b, err := readFrame(r, body, p, maxElems)
			body = b
			if err != nil {
				return
			}
			switch h.typ {
			case frameData:
				m, err := decodeDataBody(h, body)
				if err != nil {
					t.Fatalf("validated data frame failed decode: %v", err)
				}
				// decode∘encode must be the identity on accepted frames:
				// compare header and body against a fresh encode (the codec
				// rejects nonzero reserved fields and parses the data-frame
				// epoch into the message, so the original header is fully
				// determined by the parsed fields).
				re, _ := encodeDataFrame(nil, h.dst, h.src, m)
				var hdr [frameHeaderLen]byte
				putHeader(hdr[:], h)
				if !bytes.Equal(re[:frameHeaderLen], hdr[:]) || !bytes.Equal(re[frameHeaderLen:], body) {
					t.Fatalf("re-encode of decoded frame differs")
				}
				if m.pb != nil {
					payloads.Put(m.pb)
				}
			case frameConfig:
				decodeConfig(body) // must not panic on any payload
			case frameRequest:
				sf := ServeFrame{Type: h.typ, Flags: h.flags, ID: h.tag, Count: h.count}
				w := checksum.Weights(serveWeightCount(h))
				req, cur, curOK, err := DecodeServeRequestPair(sf, body, func(int) []complex128 { return w })
				if err != nil {
					// Meta-level rejects (ndims beyond the limit) are valid
					// decoder outcomes on arbitrary bytes.
					continue
				}
				re, _ := AppendServeRequestPair(nil, req, w)
				checkServeReencode(t, h, body, re, serveReqMetaLen, cur, curOK)
				req.Release()
			case frameResponse:
				sf := ServeFrame{Type: h.typ, Flags: h.flags, ID: h.tag, Count: h.count}
				data := make([]complex128, h.count)
				rdata := make([]float64, h.count)
				w := checksum.Weights(serveWeightCount(h))
				resp, cur, curOK, err := DecodeServeResponseIntoPair(sf, body, data, rdata, func(int) []complex128 { return w })
				if err != nil {
					// Report flags-word rejects are valid decoder outcomes
					// on arbitrary bytes.
					continue
				}
				re, _ := AppendServeResponsePair(nil, &resp, w)
				checkServeReencode(t, h, body, re, serveRespMetaLen, cur, curOK)
			case frameError:
				sf := ServeFrame{Type: h.typ, Flags: h.flags, ID: h.tag, Count: h.count}
				DecodeServeError(sf, body) // must not panic on any payload
			}
		}
	})
}

// serveWeightCount is the §5 weight count of a request/response frame: its
// elements, or its sample pairs for a real payload.
func serveWeightCount(h frameHeader) int {
	if h.flags&flagReal != 0 {
		return h.count / 2
	}
	return h.count
}

// checkServeReencode holds an accepted service frame to decode∘encode being
// the identity. The production encoders always generate the checksum block
// from the payload, so the re-encoded frame must equal the original in
// header (with the checksum flag set), meta block and payload bytes, and its
// checksum block must be the receiver-side pair the fused decode computed —
// which makes a frame that carried consistent checksums re-encode byte for
// byte.
func checkServeReencode(t *testing.T, h frameHeader, body, re []byte, metaLen int, cur checksum.Pair, curOK bool) {
	t.Helper()
	hasCS := h.flags&flagHasCS != 0
	if hasCS != curOK {
		t.Fatalf("fused decode computed a pair %v, frame carries checksums %v", curOK, hasCS)
	}
	want := h
	want.flags |= flagHasCS
	var hdr [frameHeaderLen]byte
	putHeader(hdr[:], want)
	payload := body[metaLen:]
	if hasCS {
		payload = body[metaLen+checksumLen:]
	}
	reBody := re[frameHeaderLen:]
	if !bytes.Equal(re[:frameHeaderLen], hdr[:]) || !bytes.Equal(reBody[:metaLen], body[:metaLen]) ||
		!bytes.Equal(reBody[metaLen+checksumLen:], payload) {
		t.Fatalf("re-encode of decoded service frame differs")
	}
	got := [2]complex128{getComplex(reBody, metaLen), getComplex(reBody, metaLen+elemLen)}
	if hasCS && !samePair(cur, got) {
		t.Fatalf("re-encoded checksums %v, receiver-side pair %+v", got, cur)
	}
}

// FuzzShmFrame feeds arbitrary ring bytes and counter states to the
// shared-memory record decoder: whatever another process scribbled into the
// mapping — torn records, hostile lengths, runaway counters, misaligned
// heads — must come back as an error or a validated record, never a panic.
// Accepted records must stay inside the published region and re-parse to the
// same frame header (the decoder aliases, it does not copy).
func FuzzShmFrame(f *testing.F) {
	seedHdr := frameHeader{typ: frameData, flags: flagHasCS, tag: 3, src: 1, dst: 0, count: 2}
	seed := make([]byte, 256)
	seed[0] = byte(frameHeaderLen + checksumLen + 2*elemLen)
	seed[4] = 5 // seq
	putHeader(seed[shmRecHdrBytes:], seedHdr)
	f.Add(seed, uint64(0), uint64(96), uint32(5))
	wrap := make([]byte, 64)
	wrap[0], wrap[1], wrap[2], wrap[3] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(wrap, uint64(0), uint64(64), uint32(0))
	f.Add([]byte{}, uint64(0), uint64(0), uint32(0))
	f.Add(bytes.Repeat([]byte{0xA5}, 128), uint64(1<<40), uint64(1<<40+64), uint32(9))

	const p, maxElems = 8, 1 << 10
	f.Fuzz(func(t *testing.T, data []byte, head, tail uint64, seq uint32) {
		advance, isWrap, h, body, err := decodeShmRecord(data, head, tail, seq, p, maxElems)
		if err != nil {
			return
		}
		if advance == 0 || advance > uint64(len(data)) || advance > tail-head {
			t.Fatalf("accepted advance %d outside ring of %d (published %d)", advance, len(data), tail-head)
		}
		if isWrap {
			return
		}
		// The body must sit inside the record the advance spans, and the
		// header must re-encode to the bytes the decoder validated.
		if uint64(shmRecHdrBytes+frameHeaderLen+len(body)) > advance+7 {
			t.Fatalf("body of %d bytes overruns the %d-byte record", len(body), advance)
		}
		var hdr [frameHeaderLen]byte
		putHeader(hdr[:], h)
		pos := head % uint64(len(data))
		if !bytes.Equal(hdr[:], data[pos+shmRecHdrBytes:pos+shmRecHdrBytes+frameHeaderLen]) {
			t.Fatalf("accepted header does not re-encode to the ring bytes")
		}
	})
}
