package mpi

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ftfft/internal/checksum"
)

// roundTripServe pushes one encoded frame through ReadServeFrame.
func roundTripServe(t *testing.T, frame []byte, maxElems int) (ServeFrame, []byte) {
	t.Helper()
	f, body, err := ReadServeFrame(bytes.NewReader(frame), nil, maxElems)
	if err != nil {
		t.Fatalf("ReadServeFrame: %v", err)
	}
	return f, body
}

// sameFloat compares float64s by bit pattern, except that any two NaNs
// match: a NaN's payload after arithmetic is not part of the wire contract.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// samePair reports whether a pair equals the carried checksums bit for bit
// (NaN-tolerant, see sameFloat).
func samePair(p checksum.Pair, cs [2]complex128) bool {
	return sameFloat(real(p.D1), real(cs[0])) && sameFloat(imag(p.D1), imag(cs[0])) &&
		sameFloat(real(p.D2), real(cs[1])) && sameFloat(imag(p.D2), imag(cs[1]))
}

func TestServeRequestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8dead_beef0001)
	cases := []struct {
		name string
		req  ServeRequest
	}{
		{"complex", ServeRequest{
			ID: 41, Op: OpForward, Protection: 3, N: 4,
			Data: []complex128{1 + 2i, complex(nan, -0.0), 3, -4i},
		}},
		{"complex-cs", ServeRequest{
			ID: 42, Op: OpInverse, Protection: 5, N: 2,
			Data: []complex128{7, complex(math.Copysign(0, -1), 8)},
		}},
		{"nd", ServeRequest{
			ID: 43, Op: OpForward, Protection: 1, N: 8,
			Dims: []int{2, 4},
			Data: make([]complex128, 8),
		}},
		{"real", ServeRequest{
			ID: 44, Op: OpRealForward, Protection: 2, N: 6,
			Real: []float64{1, -2, nan, math.Copysign(0, -1), 5, 6},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.req.Data)
			if tc.req.Real != nil {
				n = len(tc.req.Real) / 2
			}
			w := checksum.Weights(n)
			frame, payloadOff := AppendServeRequestPair(nil, &tc.req, w)
			if payloadOff <= frameHeaderLen || payloadOff >= len(frame) {
				t.Fatalf("payload offset %d outside frame of %d bytes", payloadOff, len(frame))
			}
			if !tc.req.HasCS {
				t.Fatal("AppendServeRequestPair left HasCS unset")
			}
			f, body := roundTripServe(t, frame, 64)
			if f.Type != ServeFrameRequest || f.ID != tc.req.ID {
				t.Fatalf("frame header %+v", f)
			}
			got, cur, curOK, err := DecodeServeRequestPair(f, body, func(int) []complex128 { return w })
			if err != nil {
				t.Fatalf("DecodeServeRequestPair: %v", err)
			}
			defer got.Release()
			if got.Op != tc.req.Op || got.Protection != tc.req.Protection || got.N != tc.req.N {
				t.Fatalf("meta mismatch: got %+v", got)
			}
			if len(got.Dims) != len(tc.req.Dims) {
				t.Fatalf("dims %v, want %v", got.Dims, tc.req.Dims)
			}
			for i := range got.Dims {
				if got.Dims[i] != tc.req.Dims[i] {
					t.Fatalf("dims %v, want %v", got.Dims, tc.req.Dims)
				}
			}
			if !got.HasCS || !bitsEqualPair(got.CS, tc.req.CS, true) {
				t.Fatalf("checksums %v, want %v", got.CS, tc.req.CS)
			}
			if !curOK || !samePair(cur, got.CS) {
				t.Fatalf("receiver pair %+v does not match the carried %v", cur, got.CS)
			}
			if tc.req.Data != nil && !hasNaN(tc.req.Data) {
				if ref := checksum.GeneratePair(w, tc.req.Data); !samePair(ref, got.CS) {
					t.Fatalf("carried pair %v, GeneratePair %+v", got.CS, ref)
				}
			}
			if len(got.Data) != len(tc.req.Data) || len(got.Real) != len(tc.req.Real) {
				t.Fatalf("payload lengths %d/%d, want %d/%d",
					len(got.Data), len(got.Real), len(tc.req.Data), len(tc.req.Real))
			}
			for i := range got.Data {
				if !bitsEqual(got.Data[i], tc.req.Data[i]) {
					t.Fatalf("data[%d] = %v, want %v (bit-exact)", i, got.Data[i], tc.req.Data[i])
				}
			}
			for i := range got.Real {
				if math.Float64bits(got.Real[i]) != math.Float64bits(tc.req.Real[i]) {
					t.Fatalf("real[%d] = %v, want %v (bit-exact)", i, got.Real[i], tc.req.Real[i])
				}
			}
		})
	}
}

// hasNaN reports whether any element of x has a NaN part.
func hasNaN(x []complex128) bool {
	for _, v := range x {
		if real(v) != real(v) || imag(v) != imag(v) {
			return true
		}
	}
	return false
}

func bitsEqualPair(a, b [2]complex128, has bool) bool {
	if !has {
		return true
	}
	return bitsEqual(a[0], b[0]) && bitsEqual(a[1], b[1])
}

func TestServeResponseRoundTrip(t *testing.T) {
	want := ServeResponse{
		ID: 77,
		Report: ServeReport{
			Detections: 2, CompRecomputations: 1, MemCorrections: 1,
			TwiddleCorrections: 3, FullRestarts: 1,
		},
		Data: []complex128{1 + 1i, complex(0, math.Inf(1)), -3},
	}
	w := checksum.Weights(len(want.Data))
	frame, _ := AppendServeResponsePair(nil, &want, w)
	f, body := roundTripServe(t, frame, 64)
	got, cur, curOK, err := DecodeServeResponseIntoPair(f, body, make([]complex128, f.Count), nil, func(int) []complex128 { return w })
	if err != nil {
		t.Fatalf("DecodeServeResponseIntoPair: %v", err)
	}
	if got.ID != want.ID || got.Report != want.Report || !got.HasCS || !bitsEqualPair(got.CS, want.CS, true) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if !curOK || !samePair(cur, got.CS) {
		t.Fatalf("receiver pair %+v does not match the carried %v", cur, got.CS)
	}
	for i := range got.Data {
		if !bitsEqual(got.Data[i], want.Data[i]) {
			t.Fatalf("data[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}

	realResp := ServeResponse{
		ID:     78,
		Report: ServeReport{Uncorrectable: true},
		Real:   []float64{0.5, -1.5, 2.5, -3.5},
	}
	wr := checksum.Weights(len(realResp.Real) / 2)
	frame, _ = AppendServeResponsePair(nil, &realResp, wr)
	f, body = roundTripServe(t, frame, 64)
	got, cur, curOK, err = DecodeServeResponseIntoPair(f, body, nil, make([]float64, f.Count), func(int) []complex128 { return wr })
	if err != nil {
		t.Fatalf("DecodeServeResponseIntoPair(real): %v", err)
	}
	if !got.Report.Uncorrectable || len(got.Real) != 4 || got.Real[3] != -3.5 {
		t.Fatalf("real response: %+v", got)
	}
	if !curOK || !samePair(cur, got.CS) || !samePair(refFloatPair(wr, realResp.Real), got.CS) {
		t.Fatalf("real response pair: carried %v, receiver %+v", got.CS, cur)
	}
}

func TestServeErrorRoundTrip(t *testing.T) {
	frame := AppendServeError(nil, 13, true, false, "two corrupted elements")
	f, body := roundTripServe(t, frame, 64)
	if f.Type != ServeFrameError || f.ID != 13 {
		t.Fatalf("frame header %+v", f)
	}
	msg, unc, unavail := DecodeServeError(f, body)
	if msg != "two corrupted elements" || !unc || unavail {
		t.Fatalf("decoded %q unc=%v unavail=%v", msg, unc, unavail)
	}

	frame = AppendServeError(nil, 14, false, true, "draining")
	f, body = roundTripServe(t, frame, 64)
	_, unc, unavail = DecodeServeError(f, body)
	if unc || !unavail {
		t.Fatalf("drain error decoded unc=%v unavail=%v", unc, unavail)
	}

	// Oversized messages are truncated, never overflow the control bound.
	frame = AppendServeError(nil, 15, false, false, strings.Repeat("x", maxControlPayload+100))
	f, _ = roundTripServe(t, frame, 64)
	if f.Count != maxControlPayload {
		t.Fatalf("oversized error message count %d, want %d", f.Count, maxControlPayload)
	}
}

func TestServeHandshakeRoundTrip(t *testing.T) {
	f, body := roundTripServe(t, AppendServeHello(nil), 64)
	if f.Type != ServeFrameHello || !IsServeHello(body) {
		t.Fatalf("hello frame %+v payload %q", f, body)
	}

	f, body = roundTripServe(t, AppendServeWelcome(nil, 1<<20), 64)
	if f.Type != ServeFrameHello {
		t.Fatalf("welcome frame %+v", f)
	}
	limit, err := DecodeServeWelcome(body)
	if err != nil || limit != 1<<20 {
		t.Fatalf("welcome limit %d err %v", limit, err)
	}
	if _, err := DecodeServeWelcome([]byte("HTTP/1.1 400")); err == nil {
		t.Fatal("non-service welcome accepted")
	}

	f, _ = roundTripServe(t, AppendServeGoodbye(nil), 64)
	if f.Type != ServeFrameGoodbye {
		t.Fatalf("goodbye frame %+v", f)
	}
}

// TestServeFrameRejects drives hostile frames through the bounds-validated
// decoder: every one must fail cleanly, never panic.
func TestServeFrameRejects(t *testing.T) {
	valid, _ := AppendServeRequestPair(nil, &ServeRequest{
		ID: 1, Op: OpForward, Protection: 0, N: 2, Data: []complex128{1, 2},
	}, checksum.Weights(2))
	mutate := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"oversized", mutate(func(b []byte) { b[16] = 0xff; b[17] = 0xff })}, // count field
		{"zero-count", mutate(func(b []byte) { b[16], b[17], b[18], b[19] = 0, 0, 0, 0 })},
		{"bad-flags", mutate(func(b []byte) { b[1] = 0x80 })},
		{"nonzero-src", mutate(func(b []byte) { b[8] = 1 })},
		{"truncated", valid[:len(valid)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ReadServeFrame(bytes.NewReader(tc.frame), nil, 64); err == nil {
				t.Fatal("hostile frame accepted")
			}
		})
	}

	// Meta-level rejects: frame passes header validation, decode refuses.
	f, body := roundTripServe(t, valid, 64)
	metaCases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"reserved-meta", func(b []byte) { b[3] = 1 }},
		{"too-many-dims", func(b []byte) { b[2] = MaxServeDims + 1 }},
		{"dirty-dim-slot", func(b []byte) { b[8+4*7] = 1 }},
	}
	for _, tc := range metaCases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), body...)
			tc.mut(b)
			if _, _, _, err := DecodeServeRequestPair(f, b, nil); err == nil {
				t.Fatal("hostile request meta accepted")
			}
		})
	}
}
