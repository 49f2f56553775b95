package core

import (
	"ftfft/internal/checksum"
	"ftfft/internal/fault"
)

// onlineComp implements Algorithm 2 — the online two-layer ABFT scheme with
// computational fault tolerance only. Every m-point and k-point sub-FFT is
// verified the moment it completes, and a mismatch triggers an immediate
// recomputation of just that sub-FFT (O(√N·log√N) instead of a full
// restart). The twiddle multiplication is protected by DMR.
//
// The Naive variant is the strawman of the paper's introduction: it applies
// the offline recipe to each decomposed sub-FFT independently, so it
// re-derives the checksum vector trigonometrically for every sub-FFT call,
// reads the non-contiguous inputs twice (once for the checksum, once for the
// transform) without gathering, and runs the twiddle stage as a separate
// row-wise pass. The Optimized variant computes each checksum vector once
// (under DMR), gathers sub-inputs into contiguous buffers (§4.4), and fuses
// the twiddle multiplication into the column gather and the stage-2 input
// checksum into the DMR verification pass.
func (t *Transformer) onlineComp(dst, src []complex128, th Thresholds) (Report, error) {
	var rep Report
	naive := t.cfg.Variant == Naive
	m, k := t.m, t.k
	ds, ss := t.ds, t.ss
	inj := t.cfg.Injector

	// Memory sites are visited even though this scheme does not check them
	// (§3.1 protects computation only; §3.2 adds the memory checks).
	fault.Visit(inj, fault.SiteInputMemory, 0, src, t.n, ss)

	// ---- Stage 1: k m-point sub-FFTs over stride-k sub-vectors ----
	var cm []complex128
	if !naive {
		cm = t.dmrCheckVector(t.cm, t.cmDup, &rep)
	}
	for i := 0; i < k; i++ {
		if err := t.canceled(); err != nil {
			return rep, err
		}
		row := t.work[i*m : (i+1)*m]
		var cx complex128
		if naive {
			// Re-derived per call; strided double read of the input.
			cm = checksum.CheckVectorTrig(m)
			cx = checksum.DotStrided(cm, src[i*ss:], m, k*ss)
		} else {
			gather(t.bufA[:m], src[i*ss:], m, k*ss)
			cx = checksum.Dot(cm, t.bufA[:m])
		}
		ok := false
		for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
			if naive {
				t.planM.ExecuteStrided(row, src[i*ss:], k*ss)
			} else {
				t.planM.Execute(row, t.bufA[:m])
			}
			fault.Visit(inj, fault.SiteSubFFT1, 0, row, m, 1)
			if ccvPass(checksum.DotOmega3(row), cx, th.Eta1, m) {
				ok = true
				break
			}
			rep.Detections++
			rep.CompRecomputations++
		}
		if !ok {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
	}

	fault.Visit(inj, fault.SiteIntermediateMemory, 0, t.work, t.n, 1)

	// ---- Twiddle multiplication (DMR) + Stage 2: m k-point sub-FFTs ----
	var ck []complex128
	if naive {
		// Separate row-wise twiddle pass over the whole intermediate; row
		// i's twiddles sit at stride k in the column-major table.
		for i := 0; i < k; i++ {
			row := t.work[i*m : (i+1)*m]
			t.dmrTwiddle(t.bufB[:m], row, t.twiddle[i:], k, &rep)
			copy(row, t.bufB[:m])
		}
	} else {
		ck = t.dmrCheckVector(t.ck, t.ckDup, &rep)
	}

	for j := 0; j < m; j++ {
		if err := t.canceled(); err != nil {
			return rep, err
		}
		var cx2 complex128
		var in []complex128 // the verified post-twiddle sub-input
		if naive {
			ck = checksum.CheckVectorTrig(k)
			cx2 = checksum.DotStrided(ck, t.work[j:], k, m)
			in = nil
		} else {
			gather(t.bufA[:k], t.work[j:], k, m)
			cx2 = t.dmrTwiddleDot(t.bufB[:k], t.bufA[:k], t.twiddle[j*k:], ck, &rep)
			in = t.bufB[:k]
		}
		ok := false
		for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
			if naive {
				t.planK.ExecuteStrided(t.bufC[:k], t.work[j:], m)
			} else {
				t.planK.Execute(t.bufC[:k], in)
			}
			fault.Visit(inj, fault.SiteSubFFT2, 0, t.bufC[:k], k, 1)
			if ccvPass(checksum.DotOmega3(t.bufC[:k]), cx2, th.Eta2, k) {
				ok = true
				break
			}
			rep.Detections++
			rep.CompRecomputations++
		}
		if !ok {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
		scatter(dst[j*ds:], t.bufC[:k], k, m*ds)
	}
	fault.Visit(inj, fault.SiteOutputMemory, 0, dst, t.n, ds)
	return rep, nil
}
