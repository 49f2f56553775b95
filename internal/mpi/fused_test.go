// fused_test.go pins the fused checksum sweeps to the reference separate-
// pass implementation: generating the §5 pair inside the serialization copy
// (IsendPair, AppendServe*Pair) and inside the decode loop (WaitPair,
// DecodeServe*Pair) must produce bit-for-bit the values of
// checksum.GeneratePair run as its own pass on finite data — same element
// order, same rounding, on every wire.
package mpi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ftfft/internal/checksum"
)

// pairBitsEqual compares two checksum pairs at the bit level (the fused
// guarantee is representation equality, not numeric closeness).
func pairBitsEqual(a, b checksum.Pair) bool {
	eq := func(x, y complex128) bool {
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	}
	return eq(a.D1, b.D1) && eq(a.D2, b.D2)
}

// refServeTail encodes a service frame's checksum block and payload element
// by element with putComplex/putFloat: the reference bytes the fused
// encoders must reproduce.
func refServeTail(pair checksum.Pair, data []complex128, samples []float64) []byte {
	b := make([]byte, checksumLen+len(data)*elemLen+len(samples)*8)
	putComplex(b, 0, pair.D1)
	putComplex(b, elemLen, pair.D2)
	off := checksumLen
	for _, z := range data {
		putComplex(b, off, z)
		off += elemLen
	}
	for _, v := range samples {
		putFloat(b, off, v)
		off += 8
	}
	return b
}

// refFloatPair is the reference two-pass checksum of a real payload viewed
// as adjacent sample pairs, in GeneratePair's exact accumulation order.
func refFloatPair(w []complex128, x []float64) checksum.Pair {
	var d1, d2 complex128
	for j := range w {
		t := w[j] * complex(x[2*j], x[2*j+1])
		d1 += t
		d2 += complex(float64(j), 0) * t
	}
	return checksum.Pair{D1: d1, D2: d2}
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestIsendPairBitIdenticalChan pins the fused rank-wire sweeps over the
// in-process chan transport: the sender-side pair rides as the message
// checksum, and the receiver-side pair from WaitPair's fused copy equals a
// separate GeneratePair pass over the received buffer, bit for bit.
func TestIsendPairBitIdenticalChan(t *testing.T) {
	const n = 257
	rng := rand.New(rand.NewSource(3))
	data := randomComplex(rng, n)
	w := checksum.Weights(n)
	want := checksum.GeneratePair(w, data)

	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			c.IsendPair(1, 5, data, w)
			return nil
		}
		buf := make([]complex128, n)
		cs, has, pair, err := c.IrecvPair(0, 5, buf, w).WaitPair()
		if err != nil {
			return err
		}
		if !has || cs[0] != want.D1 || cs[1] != want.D2 {
			t.Errorf("sender-side fused pair %v,%v, want %v,%v", cs[0], cs[1], want.D1, want.D2)
		}
		if ref := checksum.GeneratePair(w, buf); !pairBitsEqual(pair, ref) {
			t.Errorf("receiver-side fused pair %+v, separate pass %+v", pair, ref)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIsendPairBitIdenticalShm runs the same pinning over the shared-memory
// wire, where the receive decodes serialized ring bytes in place — the fused
// decode sweep must still match the separate pass bit for bit.
func TestIsendPairBitIdenticalShm(t *testing.T) {
	const n = 63
	rng := rand.New(rand.NewSource(4))
	data := randomComplex(rng, n)
	w := checksum.Weights(n)
	want := checksum.GeneratePair(w, data)

	hub, hubW, _, workerWs := startShmWorld(t, 2, WorldMeta{N: 64, P: 2})
	defer hub.Close()
	hubW.Endpoint(0).IsendPair(1, 5, data, w)
	buf := make([]complex128, n)
	cs, has, pair, err := workerWs[0].Endpoint(1).IrecvPair(0, 5, buf, w).WaitPair()
	if err != nil {
		t.Fatal(err)
	}
	if !has || cs[0] != want.D1 || cs[1] != want.D2 {
		t.Fatalf("sender-side fused pair over shm %v,%v, want %v,%v", cs[0], cs[1], want.D1, want.D2)
	}
	if ref := checksum.GeneratePair(w, buf); !pairBitsEqual(pair, ref) {
		t.Fatalf("receiver-side fused pair over shm %+v, separate pass %+v", pair, ref)
	}
	for i := range buf {
		if buf[i] != data[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, buf[i], data[i])
		}
	}
}

// TestServeRequestPairBitIdentical pins the fused service-wire encode: the
// checksum block and payload AppendServeRequestPair emits — checksums
// generated inside the serialization sweep — are byte-identical to the
// separate-pass checksums and per-element encoding, and the fused decode
// recovers a current pair bit-identical to a separate pass over the decoded
// payload. Complex and real payloads both.
func TestServeRequestPairBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	metaEnd := frameHeaderLen + serveReqMetaLen

	t.Run("complex", func(t *testing.T) {
		const n = 64
		data := randomComplex(rng, n)
		w := checksum.Weights(n)
		req := ServeRequest{ID: 3, Op: OpForward, Protection: 5, N: n, Data: data}
		fused, _ := AppendServeRequestPair(nil, &req, w)
		if ref := refServeTail(checksum.GeneratePair(w, data), data, nil); !bytes.Equal(fused[metaEnd:], ref) {
			t.Fatal("fused-encode frame differs from separate-pass frame")
		}

		h, err := parseHeader(fused, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		sf := ServeFrame{Type: h.typ, Flags: h.flags, ID: h.tag, Count: h.count}
		dec, cur, curOK, err := DecodeServeRequestPair(sf, fused[frameHeaderLen:], func(int) []complex128 { return w })
		if err != nil {
			t.Fatal(err)
		}
		defer dec.Release()
		if !curOK {
			t.Fatal("fused decode did not produce a current pair")
		}
		if refCur := checksum.GeneratePair(w, dec.Data); !pairBitsEqual(cur, refCur) {
			t.Fatalf("fused decode pair %+v, separate pass %+v", cur, refCur)
		}
	})

	t.Run("real", func(t *testing.T) {
		const n = 64
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		w := checksum.Weights(n / 2)
		req := ServeRequest{ID: 4, Op: OpRealForward, N: n, Real: x}
		fused, _ := AppendServeRequestPair(nil, &req, w)
		if ref := refServeTail(refFloatPair(w, x), nil, x); !bytes.Equal(fused[metaEnd:], ref) {
			t.Fatal("fused-encode real frame differs from separate-pass frame")
		}

		h, err := parseHeader(fused, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		sf := ServeFrame{Type: h.typ, Flags: h.flags, ID: h.tag, Count: h.count}
		dec, cur, curOK, err := DecodeServeRequestPair(sf, fused[frameHeaderLen:], func(int) []complex128 { return w })
		if err != nil {
			t.Fatal(err)
		}
		defer dec.Release()
		if !curOK {
			t.Fatal("fused real decode did not produce a current pair")
		}
		if refCur := refFloatPair(w, dec.Real); !pairBitsEqual(cur, refCur) {
			t.Fatalf("fused real decode pair %+v, separate pass %+v", cur, refCur)
		}
	})
}

// TestServeResponsePairBitIdentical is the response-side twin: fused encode
// equals separate-pass encode byte for byte, fused decode-into equals a
// separate pass over the destination buffer bit for bit.
func TestServeResponsePairBitIdentical(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(6))
	data := randomComplex(rng, n)
	w := checksum.Weights(n)
	resp := ServeResponse{ID: 9, Report: ServeReport{Detections: 2, MemCorrections: 1}, Data: data}
	fused, _ := AppendServeResponsePair(nil, &resp, w)
	metaEnd := frameHeaderLen + serveRespMetaLen
	if ref := refServeTail(checksum.GeneratePair(w, data), data, nil); !bytes.Equal(fused[metaEnd:], ref) {
		t.Fatal("fused-encode response differs from separate-pass frame")
	}

	h, err := parseHeader(fused, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	sf := ServeFrame{Type: h.typ, Flags: h.flags, ID: h.tag, Count: h.count}
	dst := make([]complex128, n)
	dec, cur, curOK, err := DecodeServeResponseIntoPair(sf, fused[frameHeaderLen:], dst, nil, func(int) []complex128 { return w })
	if err != nil {
		t.Fatal(err)
	}
	if !dec.HasCS || !curOK {
		t.Fatalf("fused response decode lost checksums (hasCS=%v curOK=%v)", dec.HasCS, curOK)
	}
	if refCur := checksum.GeneratePair(w, dst); !pairBitsEqual(cur, refCur) {
		t.Fatalf("fused response decode pair %+v, separate pass %+v", cur, refCur)
	}
}
