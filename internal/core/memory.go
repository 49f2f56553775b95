package core

import (
	"math/cmplx"

	"ftfft/internal/checksum"
	"ftfft/internal/fault"
)

// onlineMemNaive implements the Fig. 2 hierarchy: online ABFT with memory
// fault tolerance, before the §4 optimizations. The computational machinery
// is shared with the optimized scheme (checksum vectors computed once,
// gathered buffers), but the memory protocol is the expensive one the paper
// starts from:
//
//   - classic checksums r₁ = (1,…,1), r₂ = (0,…,n-1) computed in two
//     separate passes per block;
//   - an explicit MCV before every sub-FFT (the §4.2 optimization postpones
//     these into the CCVs);
//   - at the layer boundary, every intermediate row is re-verified and every
//     column checksum regenerated from scratch — "each element is verified
//     twice" — instead of the §4.3 incremental generation;
//   - output column-group checksums verified in a final strided pass.
func (t *Transformer) onlineMemNaive(dst, src []complex128, th Thresholds) (Report, error) {
	var rep Report
	m, k := t.m, t.k
	ds, ss := t.ds, t.ss
	inj := t.cfg.Injector

	cm := t.dmrCheckVector(t.cm, t.cmDup, &rep)

	// MCG for every stage-1 sub-input: classic checksums, two strided
	// passes each.
	for i := 0; i < k; i++ {
		t.inPairs[i] = classicPairStridedTwoPass(src[i*ss:], m, k*ss)
	}
	fault.Visit(inj, fault.SiteInputMemory, 0, src, t.n, ss)

	// ---- Stage 1 ----
	for i := 0; i < k; i++ {
		if err := t.canceled(); err != nil {
			return rep, err
		}
		// MCV before use; repair single memory errors in place.
		if !t.verifyClassicStrided(src[i*ss:], m, k*ss, &t.inPairs[i], &rep) {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
		gather(t.bufA[:m], src[i*ss:], m, k*ss)
		cx := checksum.Dot(cm, t.bufA[:m])
		row := t.work[i*m : (i+1)*m]
		ok := false
		for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
			t.planM.Execute(row, t.bufA[:m])
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
		// MCG of the produced row.
		t.rowPairs[i] = classicPairTwoPass(row)
	}

	fault.Visit(inj, fault.SiteIntermediateMemory, 0, t.work, t.n, 1)

	// ---- Layer boundary: verify rows, regenerate column checksums ----
	for i := 0; i < k; i++ {
		row := t.work[i*m : (i+1)*m]
		if !t.verifyClassic(row, &t.rowPairs[i], &rep) {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
	}
	for j := 0; j < m; j++ {
		t.colPairs[j] = classicPairStridedTwoPass(t.work[j:], k, m)
	}

	// ---- Stage 2 ----
	ck := t.dmrCheckVector(t.ck, t.ckDup, &rep)
	for j := 0; j < m; j++ {
		if err := t.canceled(); err != nil {
			return rep, err
		}
		if !t.verifyClassicStrided(t.work[j:], k, m, &t.colPairs[j], &rep) {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
		gather(t.bufA[:k], t.work[j:], k, m)
		cx2 := t.dmrTwiddleDot(t.bufB[:k], t.bufA[:k], t.twiddle[j*k:], ck, &rep)
		ok := false
		for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
			t.planK.Execute(t.bufC[:k], t.bufB[:k])
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
		t.outPairs[j] = classicPairTwoPass(t.bufC[:k])
	}

	fault.Visit(inj, fault.SiteOutputMemory, 0, dst, t.n, ds)

	// ---- Final MCV over the output column groups ----
	for j := 0; j < m; j++ {
		if !t.verifyClassicStrided(dst[j*ds:], k, m*ds, &t.outPairs[j], &rep) {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
	}
	return rep, nil
}

// onlineMemOpt implements the Fig. 3 optimized hierarchy:
//
//   - CMCG (§4.1/§4.4): one contiguous sweep over the input accumulates a
//     modified checksum pair per stage-1 sub-FFT, whose D1 *is* the
//     computational input checksum;
//   - verification postponing (§4.2): no MCV before the m-point FFTs — the
//     CCV afterwards detects both fault classes, and on mismatch the input
//     pair disambiguates memory from computational faults;
//   - incremental generation (§4.3): stage-2 input pairs accumulate as each
//     verified row is produced, so the intermediate is never re-read for
//     checksum generation;
//   - the final output is protected by one whole-array pair accumulated at
//     scatter time and verified in a single contiguous sweep, with located
//     single errors repaired in place (second-level recovery recomputes the
//     affected column from the intact intermediate).
//
// Every sweep does all the work its data admits: the stage-1 sub-FFTs read
// their strided inputs in place, each stage-2 column is gathered and checked
// in one pass, its DMR verification pass generates the CCG, and the scatter
// folds the output pair. Checksum weights use logical indices throughout, so
// strided calls stay bit-identical to contiguous ones.
func (t *Transformer) onlineMemOpt(dst, src []complex128, th Thresholds) (Report, error) {
	var rep Report
	m, k := t.m, t.k
	ds, ss := t.ds, t.ss
	inj := t.cfg.Injector

	cm := t.dmrCheckVector(t.cm, t.cmDup, &rep)
	ck := t.dmrCheckVector(t.ck, t.ckDup, &rep) // also the weights of t.acc

	// ---- CMCG: one sweep over the input in logical order ----
	// Element j·k+i is entry j of stage-1 sub-FFT i.
	inPairs := t.inPairs[:k]
	for i := range inPairs {
		inPairs[i] = checksum.Pair{}
	}
	for j, c := range cm {
		f := float64(j)
		base := j * k * ss
		for i := range inPairs {
			w := c * src[base+i*ss]
			p := &inPairs[i]
			p.D1 += w
			p.D2 += complex(f*real(w), f*imag(w))
		}
	}
	fault.Visit(inj, fault.SiteInputMemory, 0, src, t.n, ss)

	acc := t.acc
	acc.Reset()
	var outPair checksum.Pair

	// ---- Stage 1 with postponed MCV ----
	for i := 0; i < k; i++ {
		if err := t.canceled(); err != nil {
			return rep, err
		}
		in := src[i*ss:] // sub-input i: m elements at stride k·ss
		cx := inPairs[i].D1
		row := t.work[i*m : (i+1)*m]
		ok := false
		for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
			t.planM.ExecuteStrided(row, in, k*ss)
			fault.Visit(inj, fault.SiteSubFFT1, 0, row, m, 1)
			if ccvPass(checksum.DotOmega3(row), cx, th.Eta1, m) {
				ok = true
				break
			}
			rep.Detections++
			// Postponed MCV: was it the input or the computation?
			d := inPairs[i].Sub(checksum.GeneratePairStrided(cm, in, m, k*ss))
			if cmplx.Abs(d.D1) > th.Eta1 {
				// Memory fault in the input: locate, repair the resident
				// input, and recompute.
				if jj, located := checksum.Locate(d, m); located {
					in[jj*k*ss] += d.D1 / cm[jj]
					rep.MemCorrections++
					continue
				}
				rep.Uncorrectable = true
				return rep, ErrUncorrectable
			}
			rep.CompRecomputations++
		}
		if !ok {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
		acc.AddRow(i, row) // §4.3 incremental stage-2 checksums
	}

	fault.Visit(inj, fault.SiteIntermediateMemory, 0, t.work, t.n, 1)

	// ---- Stage 2: CMCV & TM & CCG fused per column ----
	col, in2, out := t.bufA[:k], t.bufB[:k], t.bufC[:k]
	for j := 0; j < m; j++ {
		if err := t.canceled(); err != nil {
			return rep, err
		}
		tw := t.twiddle[j*k : (j+1)*k]
		// CMCV against the incrementally accumulated pair, fused with the
		// gather; only a mismatch (NaN included, hence the negated test)
		// re-verifies and repairs single corrupted intermediate elements.
		cur := checksum.GatherPair(col, t.work[j:], ck, k, m)
		if stored := acc.Column(j); !(cmplx.Abs(stored.D1-cur.D1) <= th.EtaMemCross) {
			idx, corrected, ok := checksum.CorrectSingle(ck, col, stored, th.EtaMemCross)
			if corrected {
				rep.Detections++
				rep.MemCorrections++
				t.work[j+idx*m] = col[idx]
			}
			if !ok {
				rep.Uncorrectable = true
				return rep, ErrUncorrectable
			}
		}
		cx2 := t.dmrTwiddleDot(in2, col, tw, ck, &rep)
		okFFT := false
		for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
			t.planK.Execute(out, in2)
			fault.Visit(inj, fault.SiteSubFFT2, 0, out, k, 1)
			if ccvPass(checksum.DotOmega3(out), cx2, th.Eta2, k) {
				okFFT = true
				break
			}
			rep.Detections++
			// Disambiguate: if the twiddled buffer changed since CCG, the
			// local buffer took a memory hit — rebuild it from the (still
			// verified) intermediate; otherwise recompute the FFT.
			if cmplx.Abs(checksum.Dot(ck, in2)-cx2) > th.Eta2 {
				gather(col, t.work[j:], k, m)
				cx2 = t.dmrTwiddleDot(in2, col, tw, ck, &rep)
				rep.MemCorrections++
				continue
			}
			rep.CompRecomputations++
		}
		if !okFFT {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
		scatterOutPair(dst, out, j, m, ds, &outPair)
	}

	fault.Visit(inj, fault.SiteOutputMemory, 0, dst, t.n, ds)

	// ---- Final CMCV over the whole output ----
	for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
		d := outPair.Sub(omega3Pair(dst, t.n, ds))
		if cmplx.Abs(d.D1) <= th.EtaMemOut {
			return rep, nil
		}
		rep.Detections++
		if g, located := checksum.Locate(d, t.n); located {
			dst[g*ds] += d.D1 / checksum.Omega3(g)
			rep.MemCorrections++
			continue
		}
		// Locate failed (e.g. two hits in the same array): second-level
		// recovery is possible because the intermediate is intact, but a
		// multi-error repair is out of the single-fault model — recompute
		// the whole second stage.
		if !t.recomputeStage2(dst, ck, &outPair, th, &rep) {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
	}
	rep.Uncorrectable = true
	return rep, ErrUncorrectable
}

// recomputeStage2 re-runs the whole second layer from the intact
// intermediate, rebuilding the output pair. Used as second-level recovery
// when the final output verification cannot locate a single repairable
// element.
func (t *Transformer) recomputeStage2(dst []complex128, ck []complex128, outPair *checksum.Pair, th Thresholds, rep *Report) bool {
	m, k := t.m, t.k
	col, in2, out := t.bufA[:k], t.bufB[:k], t.bufC[:k]
	*outPair = checksum.Pair{}
	for j := 0; j < m; j++ {
		gather(col, t.work[j:], k, m)
		cx2 := t.dmrTwiddleDot(in2, col, t.twiddle[j*k:], ck, rep)
		ok := false
		for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
			t.planK.Execute(out, in2)
			if ccvPass(checksum.DotOmega3(out), cx2, th.Eta2, k) {
				ok = true
				break
			}
			rep.Detections++
			rep.CompRecomputations++
		}
		if !ok {
			return false
		}
		scatterOutPair(dst, out, j, m, t.ds, outPair)
	}
	rep.CompRecomputations++
	return true
}

// omega3Pow holds ω₃⁰, ω₃¹, ω₃²: the whole-output checksum weights, indexed
// by a rotating g mod 3 instead of a per-element Omega3(g).
var omega3Pow = [3]complex128{checksum.Omega3(0), checksum.Omega3(1), checksum.Omega3(2)}

// scatterOutPair writes column j's k-point result col to the output
// elements g = j, j+m, j+2m, … (dst[g·ds]) and folds each into the
// whole-output pair p: D1 += ω₃^g·v, D2 += g·ω₃^g·v.
func scatterOutPair(dst, col []complex128, j, m, ds int, p *checksum.Pair) {
	d1, d2 := p.D1, p.D2
	r, rStep := j%3, m%3
	g, o := j, j*ds
	for _, v := range col {
		dst[o] = v
		w := omega3Pow[r] * v
		f := float64(g)
		d1 += w
		d2 += complex(f*real(w), f*imag(w))
		g += m
		o += m * ds
		if r += rStep; r >= 3 {
			r -= 3
		}
	}
	p.D1, p.D2 = d1, d2
}

// omega3Pair returns the whole-output pair (Σ ω₃^g·x_g, Σ g·ω₃^g·x_g) over
// the n elements x[g·stride], in one contiguous sweep.
func omega3Pair(x []complex128, n, stride int) checksum.Pair {
	var d1, d2 complex128
	r := 0
	for g := 0; g < n; g++ {
		w := omega3Pow[r] * x[g*stride]
		f := float64(g)
		d1 += w
		d2 += complex(f*real(w), f*imag(w))
		if r++; r == 3 {
			r = 0
		}
	}
	return checksum.Pair{D1: d1, D2: d2}
}

// classicPairTwoPass computes the classic memory checksums S₁ = Σ x_j and
// S₂ = Σ j·x_j in two separate passes, as the un-optimized scheme does.
func classicPairTwoPass(x []complex128) checksum.Pair {
	var s1 complex128
	for _, v := range x {
		s1 += v
	}
	var s2 complex128
	for j, v := range x {
		s2 += complex(float64(j), 0) * v
	}
	return checksum.Pair{D1: s1, D2: s2}
}

// classicPairStridedTwoPass is classicPairTwoPass over a strided block.
func classicPairStridedTwoPass(x []complex128, n, stride int) checksum.Pair {
	var s1 complex128
	idx := 0
	for j := 0; j < n; j++ {
		s1 += x[idx]
		idx += stride
	}
	var s2 complex128
	idx = 0
	for j := 0; j < n; j++ {
		s2 += complex(float64(j), 0) * x[idx]
		idx += stride
	}
	return checksum.Pair{D1: s1, D2: s2}
}

// verifyClassic recomputes the classic pair of x (same order as generation,
// so the comparison is exact in the fault-free case) and repairs a single
// corrupted element in place. It returns false when repair failed.
func (t *Transformer) verifyClassic(x []complex128, stored *checksum.Pair, rep *Report) bool {
	cur := classicPairTwoPass(x)
	d := stored.Sub(cur)
	if d.D1 == 0 && d.D2 == 0 {
		return true
	}
	rep.Detections++
	j, ok := checksum.Locate(d, len(x))
	if !ok {
		return false
	}
	x[j] += d.D1
	rep.MemCorrections++
	// The repair rounds (x'_j + Δ ≠ x_j bitwise), so the re-verification
	// tolerates round-off relative to the correction magnitude.
	tol := 1e-9 * (1 + cmplx.Abs(stored.D1) + cmplx.Abs(d.D1))
	cur = classicPairTwoPass(x)
	d = stored.Sub(cur)
	return cmplx.Abs(d.D1) <= tol
}

// verifyClassicStrided is verifyClassic over a strided block.
func (t *Transformer) verifyClassicStrided(x []complex128, n, stride int, stored *checksum.Pair, rep *Report) bool {
	cur := classicPairStridedTwoPass(x, n, stride)
	d := stored.Sub(cur)
	if d.D1 == 0 && d.D2 == 0 {
		return true
	}
	rep.Detections++
	j, ok := checksum.Locate(d, n)
	if !ok {
		return false
	}
	x[j*stride] += d.D1
	rep.MemCorrections++
	tol := 1e-9 * (1 + cmplx.Abs(stored.D1) + cmplx.Abs(d.D1))
	cur = classicPairStridedTwoPass(x, n, stride)
	d = stored.Sub(cur)
	return cmplx.Abs(d.D1) <= tol
}
