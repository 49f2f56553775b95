package mpi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ftfft/internal/checksum"
)

// randomPayload draws elements from the full float64 bit space — including
// NaN payloads, infinities, subnormals and negative zeros — because the
// wire's bit-for-bit guarantee is over bit patterns, not values.
func randomPayload(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(
			math.Float64frombits(rng.Uint64()),
			math.Float64frombits(rng.Uint64()),
		)
	}
	return out
}

// bitsEqual compares complex values by bit pattern (NaN != NaN under ==).
func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestDataFrameRoundTrip is the codec property test: for random tags, rank
// pairs, lengths, checksum presence and full-bit-space payloads, encode →
// parse → decode reproduces the message bit-for-bit.
func TestDataFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const p = 16
	var enc []byte
	for iter := 0; iter < 2000; iter++ {
		m := Message{
			Tag:   rng.Intn(1 << 20),
			Epoch: rng.Uint32(),
			Data:  randomPayload(rng, rng.Intn(64)),
		}
		if rng.Intn(2) == 0 {
			m.HasCS = true
			m.CS = [2]complex128{
				complex(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())),
				complex(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())),
			}
		}
		src, dst := rng.Intn(p), rng.Intn(p)

		frame, payloadOff := encodeDataFrame(enc, dst, src, m)
		enc = frame
		if want := frameHeaderLen + len(m.Data)*elemLen + map[bool]int{true: checksumLen}[m.HasCS]; len(frame) != want {
			t.Fatalf("frame length %d, want %d", len(frame), want)
		}
		if payloadOff != len(frame)-len(m.Data)*elemLen {
			t.Fatalf("payload offset %d inconsistent with frame length %d", payloadOff, len(frame))
		}

		h, err := parseHeader(frame, p, 64)
		if err != nil {
			t.Fatalf("parseHeader: %v", err)
		}
		if h.typ != frameData || h.tag != m.Tag || h.src != src || h.dst != dst || h.count != len(m.Data) || h.epoch != m.Epoch {
			t.Fatalf("header mismatch: %+v vs tag=%d epoch=%d src=%d dst=%d n=%d", h, m.Tag, m.Epoch, src, dst, len(m.Data))
		}
		got, err := decodeDataBody(h, frame[frameHeaderLen:])
		if err != nil {
			t.Fatalf("decodeDataBody: %v", err)
		}
		if got.Tag != m.Tag || got.Epoch != m.Epoch || got.HasCS != m.HasCS || len(got.Data) != len(m.Data) {
			t.Fatalf("decoded message mismatch: %+v", got)
		}
		if m.HasCS && (!bitsEqual(got.CS[0], m.CS[0]) || !bitsEqual(got.CS[1], m.CS[1])) {
			t.Fatalf("checksums not bit-identical: %v vs %v", got.CS, m.CS)
		}
		for i := range m.Data {
			if !bitsEqual(got.Data[i], m.Data[i]) {
				t.Fatalf("element %d not bit-identical: %x vs %x",
					i, math.Float64bits(real(got.Data[i])), math.Float64bits(real(m.Data[i])))
			}
		}
		if got.pb != nil {
			payloads.Put(got.pb)
		}
	}
}

// TestControlFrameRoundTrip covers the config payload and control frames.
func TestControlFrameRoundTrip(t *testing.T) {
	meta := WorldMeta{N: 1 << 20, P: 8, Protected: true, Optimized: true, EtaScale: 2.5, MaxRetries: 7}
	for rank := 1; rank < meta.P; rank++ {
		frame := encodeControlFrame(nil, frameConfig, encodeConfig(rank, meta))
		h, err := parseHeader(frame, meta.P, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.typ != frameConfig || h.count != configPayloadLen {
			t.Fatalf("bad config header %+v", h)
		}
		gotRank, gotMeta, err := decodeConfig(frame[frameHeaderLen:])
		if err != nil {
			t.Fatal(err)
		}
		if gotRank != rank || gotMeta != meta {
			t.Fatalf("config round trip: rank %d meta %+v, want %d %+v", gotRank, gotMeta, rank, meta)
		}
	}
	if _, _, err := decodeConfig(encodeConfig(0, WorldMeta{N: 0, P: 4})); err == nil {
		t.Fatal("invalid config accepted")
	}
	abort := encodeControlFrame(nil, frameAbort, []byte("rank 3: retries exhausted"))
	h, err := parseHeader(abort, 4, 0)
	if err != nil || h.typ != frameAbort {
		t.Fatalf("abort header: %+v, %v", h, err)
	}
	if string(abort[frameHeaderLen:]) != "rank 3: retries exhausted" {
		t.Fatal("abort payload mangled")
	}
}

// TestParseHeaderRejectsGarbage pins the decoder's bounds: oversized
// payloads, out-of-range ranks, unknown types and flags all error out
// instead of allocating or panicking.
func TestParseHeaderRejectsGarbage(t *testing.T) {
	mk := func(mut func(b []byte)) []byte {
		frame, _ := encodeDataFrame(nil, 1, 0, Message{Tag: 7, Data: make([]complex128, 3)})
		mut(frame)
		return frame
	}
	cases := map[string][]byte{
		"short":      make([]byte, frameHeaderLen-1),
		"type":       mk(func(b []byte) { b[0] = 99 }),
		"flags":      mk(func(b []byte) { b[1] = 0x80 }),
		"reserved-a": mk(func(b []byte) { b[2] = 1 }),
		// Bytes 20–23 are the data-frame epoch since the PR 9 widening; on
		// every other frame type they are still reserved-zero.
		"epoch-on-control": func() []byte {
			f := encodeControlFrame(nil, frameAbort, []byte("x"))
			f[21] = 7
			return f
		}(),
		"src-range":    mk(func(b []byte) { b[8] = 200 }),
		"dst-range":    mk(func(b []byte) { b[12] = 200 }),
		"count-bound":  mk(func(b []byte) { b[16], b[17], b[18], b[19] = 0xff, 0xff, 0xff, 0x7f }),
		"control-huge": encodeControlFrame(nil, frameAbort, nil),
	}
	cases["control-huge"][16] = 0xff
	cases["control-huge"][18] = 0xff
	for name, frame := range cases {
		if _, err := parseHeader(frame, 4, 64); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadFrameShortBody: a frame whose stream ends mid-payload surfaces an
// error, not a hang or panic.
func TestReadFrameShortBody(t *testing.T) {
	frame, _ := encodeDataFrame(nil, 1, 0, Message{Tag: 1, Data: make([]complex128, 8)})
	_, _, err := readFrame(bytes.NewReader(frame[:len(frame)-5]), nil, 4, 64)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestWireElemCodec pins the element codec (putElems/getElems) to the
// per-element putComplex/getComplex reference: the encoded bytes must be
// equal and the decode bit-exact for every length and bit pattern, through
// an aligned and a misaligned buffer, and the fused pairs must equal
// checksum.GeneratePair bit for bit on finite inputs. It runs once on the
// host's own path and once with the portable per-element path forced, the
// one a big-endian host takes.
func TestWireElemCodec(t *testing.T) {
	native := nativeLE
	defer func() { nativeLE = native }()
	for _, le := range []bool{native, false} {
		nativeLE = le
		testWireElemCodec(t)
	}
}

func testWireElemCodec(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	specials := []complex128{
		complex(math.Copysign(0, -1), 0),
		complex(math.Inf(1), math.Inf(-1)),
		complex(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64*3),
		complex(math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff4_0000_dead_beef)),
		complex(math.Float64frombits(0x7ff0_0000_0000_0002), 1),
	}
	for _, n := range []int{0, 1, 3, 16384} {
		finite := make([]complex128, n)
		for i := range finite {
			finite[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		wild := randomPayload(rng, n)
		copy(wild, specials)
		w := checksum.Weights(n)
		for _, tc := range []struct {
			name   string
			x      []complex128
			finite bool
		}{{"finite", finite, true}, {"bits", wild, false}} {
			ref := make([]byte, n*elemLen)
			for i, z := range tc.x {
				putComplex(ref, i*elemLen, z)
			}
			got := make([]byte, n*elemLen)
			pr := putElems(got, tc.x, w)
			if !bytes.Equal(got, ref) {
				t.Fatalf("n=%d %s: putElems bytes differ from putComplex", n, tc.name)
			}
			if tc.finite && !pairBitsEqual(pr, checksum.GeneratePair(w, tc.x)) {
				t.Fatalf("n=%d: putElems pair %+v, GeneratePair %+v", n, pr, checksum.GeneratePair(w, tc.x))
			}
			// The decode reads the pooled (aligned) buffer through a typed
			// view and a misaligned copy through the portable fallback.
			rb := getWireBuf(n*elemLen + 1)
			for _, src := range [][]byte{rb.data[:n*elemLen], rb.data[1 : 1+n*elemLen]} {
				copy(src, ref)
				dec := make([]complex128, n)
				gp := getElems(dec, src, w)
				for i := range dec {
					if !bitsEqual(dec[i], getComplex(ref, i*elemLen)) {
						t.Fatalf("n=%d %s: getElems[%d] = %v, want %v", n, tc.name, i, dec[i], tc.x[i])
					}
				}
				if tc.finite && !pairBitsEqual(gp, pr) {
					t.Fatalf("n=%d: getElems pair %+v, putElems pair %+v", n, gp, pr)
				}
				plain := make([]complex128, n)
				if gp := getElems(plain, src, nil); gp != (checksum.Pair{}) {
					t.Fatalf("n=%d: unweighted getElems returned pair %+v", n, gp)
				}
				for i := range plain {
					if !bitsEqual(plain[i], dec[i]) {
						t.Fatalf("n=%d %s: unweighted getElems[%d] differs", n, tc.name, i)
					}
				}
			}
			putWireBuf(rb)
		}
	}
}

// TestWireFaultLeavesSenderIntact arms a WireFault hook that corrupts every
// serialized payload and sends from a caller slice over the socket wire and
// the shared-memory ring: the receiver must see the corruption, and the
// sender's slice must be unchanged — the hook only ever writes a private
// copy, even though an unhooked socket send writes straight from the slice.
func TestWireFaultLeavesSenderIntact(t *testing.T) {
	flip := func(dst, src, tag, epoch int, payload []byte) { payload[3] ^= 0x40 }
	want := []complex128{1 + 2i, -3, 4i, 5 - 6i}
	check := func(t *testing.T, send *Comm, recv *Comm) {
		t.Helper()
		data := append([]complex128(nil), want...)
		send.Send(1, 9, data, nil)
		buf := make([]complex128, len(data))
		if _, _, err := recv.Recv(0, 9, buf); err != nil {
			t.Fatal(err)
		}
		if bitsEqual(buf[0], want[0]) {
			t.Fatal("the wire-fault hook did not reach the receiver")
		}
		for i := range data {
			if !bitsEqual(data[i], want[i]) {
				t.Fatalf("sender slice changed at %d: %v, want %v", i, data[i], want[i])
			}
		}
	}
	t.Run("socket", func(t *testing.T) {
		hub, hubW, _, workerWs := startMeshWorld(t, 2, nil, nil)
		hub.InjectWireFaults(flip)
		check(t, hubW.Endpoint(0), workerWs[1].Endpoint(1))
	})
	t.Run("shm", func(t *testing.T) {
		hub, hubW, _, workerWs := startShmWorld(t, 2, WorldMeta{N: 64, P: 2})
		defer hub.Close()
		hub.InjectWireFaults(flip)
		check(t, hubW.Endpoint(0), workerWs[0].Endpoint(1))
	})
}
