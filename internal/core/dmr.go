package core

import (
	"ftfft/internal/checksum"
	"ftfft/internal/fault"
)

// dmrCheckVector computes the input checksum vector rA of size len(a) with
// double modular redundancy, as Algorithm 2 prescribes: the vector is
// computed twice (into a and b) and compared; a disagreement triggers a
// third computation and a majority vote. It returns a. The fault model
// (§3.2) assumes faults do not strike during checksum generation itself, so
// no injection site is visited here — the DMR cost is what matters for the
// overhead measurements. Both buffers are owned by the Transformer, so the
// per-call recomputation allocates nothing.
func (t *Transformer) dmrCheckVector(a, b []complex128, rep *Report) []complex128 {
	n := len(a)
	checksum.CheckVectorInto(a, n)
	checksum.CheckVectorInto(b, n)
	for i := range a {
		if a[i] != b[i] {
			rep.Detections++
			// Majority vote: the recomputation (into b, whose disputed
			// value is kept aside) is deterministic, so the third run
			// agrees with whichever copy was clean.
			bi := b[i]
			checksum.CheckVectorInto(b, n)
			if bi == b[i] {
				a[i] = bi
			}
			rep.TwiddleCorrections++
			break
		}
	}
	return a
}

// dmrTwiddle computes dst[i] = src[i] · tw[i·twStride] for i in [0, len(dst))
// with DMR: first pass computes, the injector may strike the result, the
// second pass recomputes and compares, and any mismatch is resolved by a
// third computation with majority voting (§3.1).
func (t *Transformer) dmrTwiddle(dst, src, tw []complex128, twStride int, rep *Report) {
	n := len(dst)
	ti := 0
	for i := 0; i < n; i++ {
		dst[i] = src[i] * tw[ti]
		ti += twStride
	}
	fault.Visit(t.cfg.Injector, fault.SiteTwiddle, 0, dst, n, 1)
	ti = 0
	for i := 0; i < n; i++ {
		v2 := src[i] * tw[ti]
		if dst[i] != v2 {
			rep.Detections++
			v3 := src[i] * tw[ti]
			if v2 == v3 {
				dst[i] = v2
			}
			rep.TwiddleCorrections++
		}
		ti += twStride
	}
}

// dmrTwiddleDot is dmrTwiddle over a contiguous twiddle run, fused with the
// computational checksum generation of the result: the verifying second
// pass also accumulates Σ w_i·dst_i over the voted values and returns it,
// bit-identical to checksum.Dot(w, dst) after dmrTwiddle.
func (t *Transformer) dmrTwiddleDot(dst, src, tw, w []complex128, rep *Report) complex128 {
	n := len(dst)
	src, tw, w = src[:n], tw[:n], w[:n]
	for i, v := range src {
		dst[i] = v * tw[i]
	}
	fault.Visit(t.cfg.Injector, fault.SiteTwiddle, 0, dst, n, 1)
	var sum complex128
	for i, v := range src {
		v2 := v * tw[i]
		if dst[i] != v2 {
			rep.Detections++
			if v3 := v * tw[i]; v2 == v3 {
				dst[i] = v2
			}
			rep.TwiddleCorrections++
		}
		sum += w[i] * dst[i]
	}
	return sum
}
