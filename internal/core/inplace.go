package core

import (
	"context"
	"fmt"
	"math"

	"ftfft/internal/checksum"
	"ftfft/internal/fault"
	"ftfft/internal/fft"
	"ftfft/internal/roundoff"
)

// InPlaceTransformer executes protected forward FFTs that overwrite their
// input — the regime of the parallel scheme (§5), where restart-based
// recovery is impossible because the original input is destroyed as soon as
// the first layer completes (Fig. 5). Protection therefore follows Fig. 4:
// every sub-FFT keeps its gathered input as a backup until its output
// verifies, memory between layers is covered by incrementally accumulated
// checksums, and when n = r·k² (r small, 2 or 8 for power-of-two sizes) the
// extra middle layer of r-point FFTs is protected by DMR rather than ABFT.
//
// Decomposition (n = N2·N1 with N2 = k, N1 = r·k):
//
//	layer A: N1 k-point FFTs over stride-N1 sub-vectors   (ABFT)
//	twiddle ω_n^{n1·j2}
//	layer B, per contiguous N1-block:
//	    r == 1: one k-point FFT                            (ABFT)
//	    r != 1: k r-point FFTs (DMR) + twiddle (DMR) + r k-point FFTs (ABFT)
//	    the last k-point FFTs write natural output order
//
// An InPlaceTransformer is not safe for concurrent use.
type InPlaceTransformer struct {
	n, k, r, n1 int // n = k·n1, n1 = r·k
	cfg         Config
	rank        int // rank tag passed to the injector (parallel use)

	planK *fft.Plan
	planR *fft.Plan

	ckv []complex128 // CheckVector(k): stage checksum weights
	cn1 []complex128 // CheckVector(n1): block memory-pair weights
	crv []complex128 // CheckVector(r), r > 1

	// twA[n1*?]: layer-A twiddles ω_n^{n1·j2}; twB: intra-block twiddles
	// ω_{n1}^{n1'·j2'} for the r ≠ 1 case.
	twA []complex128 // n entries: twA[j2*n1+i1] multiplies block j2 elem i1
	twB []complex128 // n1 entries (r != 1)

	bufA, bufC []complex128 // k-sized work buffers
	rbuf       []complex128 // 3r: the three runs of a DMR vote
	mid        []complex128 // n1 (2·n1 when r > 1): DMR twiddle and middle-layer staging
	adjust     []complex128 // n: layer B's output in natural order
	blockPairs []checksum.Pair
}

// NewInPlace builds an in-place protected transformer for size n, which must
// be expressible as k·(r·k) with k ≥ 2 and 1 ≤ r ≤ maxSmallRadix. For
// power-of-two n this always holds with r ∈ {1, 2}.
func NewInPlace(n int, cfg Config) (*InPlaceTransformer, error) {
	k, r, err := splitInPlace(n)
	if err != nil {
		return nil, err
	}
	t := &InPlaceTransformer{n: n, k: k, r: r, n1: r * k, cfg: cfg}
	if t.planK, err = fft.NewPlanConfig(k, fft.Forward, cfg.planConfig()); err != nil {
		return nil, err
	}
	if r > 1 {
		if t.planR, err = fft.NewPlanConfig(r, fft.Forward, cfg.planConfig()); err != nil {
			return nil, err
		}
		t.crv = checksum.CheckVector(r)
		t.twB = make([]complex128, t.n1)
		for i1 := 0; i1 < k; i1++ {
			for j2 := 0; j2 < r; j2++ {
				t.twB[j2*k+i1] = omegaN(t.n1, i1*j2)
			}
		}
	}
	t.ckv = checksum.CheckVector(k)
	t.cn1 = checksum.CheckVector(t.n1)
	t.twA = make([]complex128, n)
	for j2 := 0; j2 < k; j2++ {
		for i1 := 0; i1 < t.n1; i1++ {
			t.twA[j2*t.n1+i1] = omegaN(n, i1*j2)
		}
	}
	t.bufA = make([]complex128, k)
	t.bufC = make([]complex128, k)
	midLen := t.n1
	if r > 1 {
		t.rbuf = make([]complex128, 3*r)
		midLen = 2 * t.n1
	}
	t.mid = make([]complex128, midLen)
	t.adjust = make([]complex128, n)
	t.blockPairs = make([]checksum.Pair, k)
	return t, nil
}

// maxSmallRadix bounds the DMR-protected middle layer.
const maxSmallRadix = 16

// splitInPlace finds n = k·r·k with r minimal (preferring r = 1).
func splitInPlace(n int) (k, r int, err error) {
	for rr := 1; rr <= maxSmallRadix; rr++ {
		if n%rr != 0 {
			continue
		}
		q := n / rr
		kk := int(math.Round(math.Sqrt(float64(q))))
		for d := kk; d >= 2; d-- {
			if d*d == q {
				return d, rr, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("core: size %d is not k·r·k² with small r; no in-place plan", n)
}

// SetRank tags injector visits with a parallel rank.
func (t *InPlaceTransformer) SetRank(rank int) { t.rank = rank }

// N returns the transform size.
func (t *InPlaceTransformer) N() int { return t.n }

// Shape returns the (k, r) decomposition with n = k·(r·k).
func (t *InPlaceTransformer) Shape() (k, r int) { return t.k, t.r }

// Transform computes the forward DFT of buf in place. The input is
// destroyed even when an error is returned.
func (t *InPlaceTransformer) Transform(buf []complex128) (Report, error) {
	return t.TransformContext(context.Background(), buf)
}

// TransformContext is Transform with cancellation, checked at every layer-A
// sub-FFT and layer-B block boundary. A canceled transform returns ctx.Err()
// with buf in an unspecified (already overwritten) state.
func (t *InPlaceTransformer) TransformContext(ctx context.Context, buf []complex128) (Report, error) {
	var rep Report
	if len(buf) < t.n {
		return rep, fmt.Errorf("core: buffer too short: %d < %d", len(buf), t.n)
	}
	buf = buf[:t.n]
	th := t.inPlaceThresholds(buf)
	inj := t.cfg.Injector
	n1, k, r := t.n1, t.k, t.r
	protect := t.cfg.Scheme != Plain

	fault.Visit(inj, fault.SiteInputMemory, t.rank, buf, t.n, 1)

	// ---- Layer A: n1 k-point FFTs over stride-n1 sub-vectors ----
	for i := range t.blockPairs {
		t.blockPairs[i] = checksum.Pair{}
	}
	for i1 := 0; i1 < n1; i1++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		sub := buf[i1:]
		// bufA doubles as the Fig. 4 input backup; the CCG rides the gather.
		var cx complex128
		if protect {
			cx = checksum.GatherDot(t.bufA, sub, t.ckv, k, n1)
		} else {
			gather(t.bufA, sub, k, n1)
		}
		ok := !protect
		for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
			t.planK.Execute(t.bufC, t.bufA)
			if !protect {
				break
			}
			fault.Visit(inj, fault.SiteParallelFFT2, t.rank, t.bufC, k, 1)
			if ccvPass(checksum.DotOmega3(t.bufC), cx, th.Eta1, k) {
				ok = true
				break
			}
			rep.Detections++
			// Input backup still intact: verify it to disambiguate.
			cur := checksum.Dot(t.ckv, t.bufA)
			if !ccvPass(cur, cx, th.Eta1, k) {
				// The backup itself took a memory hit after CCG; it is
				// still pre-overwrite, so re-gather from buf.
				cx = checksum.GatherDot(t.bufA, sub, t.ckv, k, n1)
				rep.MemCorrections++
				continue
			}
			rep.CompRecomputations++
		}
		if !ok {
			rep.Uncorrectable = true
			return rep, ErrUncorrectable
		}
		// Overwrite in place; fold each element into its destination
		// block's memory pair (incremental CMCG, §4.3).
		idx := i1
		wrow := t.cn1[i1]
		iw := complex(float64(i1), 0) * wrow
		for j2 := 0; j2 < k; j2++ {
			v := t.bufC[j2]
			buf[idx] = v
			t.blockPairs[j2].D1 += wrow * v
			t.blockPairs[j2].D2 += iw * v
			idx += n1
		}
	}

	fault.Visit(inj, fault.SiteIntermediateMemory, t.rank, buf, t.n, 1)

	// ---- Layer B: per contiguous n1-block ----
	// Position j2·n1 + j2'·k + j1' of the layer-B result is
	// X_{(j1'·r + j2')·k + j2} (r = 1: j2·k + j1 holds X_{j1·k + j2}), so
	// each verified k-point FFT of the last step writes its outputs straight
	// to their natural-order positions in adjust, stride n1 from j2'·k + j2.
	stage := t.mid[:n1]
	for j2 := 0; j2 < k; j2++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		block := buf[j2*n1 : (j2+1)*n1]
		twRow := t.twA[j2*n1 : (j2+1)*n1]
		// Layer-A twiddle ω_n^{i1·j2}, DMR-protected. When protected, its
		// first run also sweeps the CMCV pair of the block, which is
		// checked against the accumulated pair before the recheck.
		if !protect {
			for i, v := range block {
				block[i] = v * twRow[i]
			}
		} else {
			cur := cmcvProducts(stage, block, twRow, t.cn1)
			idx, corrected, ok := checksum.RepairSingle(t.cn1, block, t.blockPairs[j2], cur, th.EtaMemCross)
			if corrected {
				rep.Detections++
				rep.MemCorrections++
				// The repaired element's product is redone from its
				// corrected value.
				stage[idx] = block[idx] * twRow[idx]
			}
			if !ok {
				rep.Uncorrectable = true
				return rep, ErrUncorrectable
			}
			t.dmrTwiddleCheck(block, twRow, stage, &rep)
		}

		if r == 1 {
			if !t.blockFFTK(block, j2, th, &rep, protect) {
				return rep, ErrUncorrectable
			}
			continue
		}

		// r != 1: k r-point FFTs (stride k) under DMR …
		if err := t.dmrSmallFFTs(block, &rep, protect); err != nil {
			return rep, err
		}
		// … intra-block twiddle ω_{n1}^{i1·j2'} (DMR) …
		t.dmrTwiddleInPlace(block, t.twB, &rep, protect)
		// … and r contiguous k-point FFTs under ABFT.
		for j2p := 0; j2p < r; j2p++ {
			if !t.blockFFTK(block[j2p*k:], j2p*k+j2, th, &rep, protect) {
				return rep, ErrUncorrectable
			}
		}
	}
	copy(buf, t.adjust)

	fault.Visit(inj, fault.SiteOutputMemory, t.rank, buf, t.n, 1)
	return rep, nil
}

// blockFFTK transforms the k contiguous elements at the head of in with
// ABFT protection, keeping the gathered input as backup, and writes the
// verified outputs to adjust[out], adjust[out+n1], … — their natural-order
// positions.
func (t *InPlaceTransformer) blockFFTK(in []complex128, out int, th Thresholds, rep *Report, protect bool) bool {
	k := t.k
	var cx complex128
	if protect {
		cx = checksum.GatherDot(t.bufA, in, t.ckv, k, 1)
	} else {
		copy(t.bufA, in[:k])
	}
	ok := !protect
	for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
		t.planK.Execute(t.bufC, t.bufA)
		if !protect {
			break
		}
		fault.Visit(t.cfg.Injector, fault.SiteParallelFFT2, t.rank, t.bufC, k, 1)
		if ccvPass(checksum.DotOmega3(t.bufC), cx, th.Eta2, k) {
			ok = true
			break
		}
		rep.Detections++
		cur := checksum.Dot(t.ckv, t.bufA)
		if !ccvPass(cur, cx, th.Eta2, k) {
			cx = checksum.GatherDot(t.bufA, in, t.ckv, k, 1)
			rep.MemCorrections++
			continue
		}
		rep.CompRecomputations++
	}
	if !ok {
		rep.Uncorrectable = true
		return false
	}
	scatter(t.adjust[out:], t.bufC, k, t.n1)
	return true
}

// dmrSmallFFTs runs the block's k r-point FFTs — the columns of the block
// read as a row-major r×k matrix — as one batched sweep, twice when
// protected, and compares the runs: the middle-layer DMR of Fig. 6. Both
// runs are staged in mid. A column whose runs differ gets a third run, and
// dmrVote settles it.
func (t *InPlaceTransformer) dmrSmallFFTs(block []complex128, rep *Report, protect bool) error {
	k, r, n1 := t.k, t.r, t.n1
	run1, run2 := t.mid[:n1], t.mid[n1:2*n1]
	t.planR.ExecuteColumns(run1, block, k)
	if protect {
		for i1 := 0; i1 < k; i1++ {
			fault.Visit(t.cfg.Injector, fault.SiteParallelFFT2, t.rank, run1[i1:], r, k)
		}
		t.planR.ExecuteColumns(run2, block, k)
		for i, v := range run1 {
			if v != run2[i] {
				if err := t.dmrResolve(block, run1, run2, rep); err != nil {
					return err
				}
				break
			}
		}
	}
	copy(block, run1)
	return nil
}

// dmrResolve reruns every column on which run1 and run2 disagree and writes
// the voted result into run1.
func (t *InPlaceTransformer) dmrResolve(block, run1, run2 []complex128, rep *Report) error {
	k, r := t.k, t.r
	a, b, c := t.rbuf[:r], t.rbuf[r:2*r], t.rbuf[2*r:]
	for i1 := 0; i1 < k; i1++ {
		gather(a, run1[i1:], r, k)
		gather(b, run2[i1:], r, k)
		same := true
		for i := range a {
			same = same && a[i] == b[i]
		}
		if same {
			continue
		}
		rep.Detections++
		rep.CompRecomputations++
		t.planR.ExecuteStrided(c, block[i1:], k)
		if !dmrVote(a, b, c) {
			rep.Uncorrectable = true
			return ErrUncorrectable
		}
		scatter(run1[i1:], a, r, k)
	}
	return nil
}

// dmrVote settles a DMR mismatch with a third run: element by element, run1
// takes the value that two of the three runs agree on. It reports false when
// some element differs in all three runs — no majority, so no safe value.
func dmrVote(run1, run2, run3 []complex128) bool {
	for i, v := range run3 {
		switch {
		case run1[i] == run2[i], run1[i] == v:
		case run2[i] == v:
			run1[i] = v
		default:
			return false
		}
	}
	return true
}

// cmcvProducts is the first DMR run of layer B's layer-A twiddle fused with
// the block's CMCV sweep: stage[i] = block[i]·tw[i], and the returned pair
// is checksum.GeneratePair(w, block), bit for bit.
func cmcvProducts(stage, block, tw, w []complex128) checksum.Pair {
	var d1, d2 complex128
	stage, tw, w = stage[:len(block)], tw[:len(block)], w[:len(block)]
	for i, v := range block {
		t := w[i] * v
		d1 += t
		d2 += complex(float64(i), 0) * t
		stage[i] = v * tw[i]
	}
	return checksum.Pair{D1: d1, D2: d2}
}

// dmrTwiddleInPlace multiplies block element-wise by tw with DMR: the first
// run's products are staged in mid, and dmrTwiddleCheck rechecks them and
// writes them back.
func (t *InPlaceTransformer) dmrTwiddleInPlace(block, tw []complex128, rep *Report, protect bool) {
	if !protect {
		for i := range block {
			block[i] *= tw[i]
		}
		return
	}
	stage := t.mid[:len(block)]
	for i, v := range block {
		stage[i] = v * tw[i]
	}
	t.dmrTwiddleCheck(block, tw, stage, rep)
}

// dmrTwiddleCheck is the DMR second run over the staged products of block·tw:
// the injector strikes the staged products k at a time, and each product is
// then recomputed, compared, voted on a mismatch and written back to block
// in the same loop.
func (t *InPlaceTransformer) dmrTwiddleCheck(block, tw, stage []complex128, rep *Report) {
	for off := 0; off < len(block); off += t.k {
		end := min(off+t.k, len(block))
		fault.Visit(t.cfg.Injector, fault.SiteTwiddle, t.rank, stage[off:end], end-off, 1)
		for i := off; i < end; i++ {
			v := block[i]
			v1, v2 := stage[i], v*tw[i]
			if v1 != v2 {
				rep.Detections++
				if v3 := v * tw[i]; v2 == v3 {
					v1 = v2
				}
				rep.TwiddleCorrections++
			}
			block[i] = v1
		}
	}
}

// inPlaceThresholds mirrors Transformer.thresholds for the in-place layout.
func (t *InPlaceTransformer) inPlaceThresholds(buf []complex128) Thresholds {
	if t.cfg.Thresholds != nil {
		return *t.cfg.Thresholds
	}
	stride := len(buf) / 1024
	if stride < 1 {
		stride = 1
	}
	sigma0 := roundoff.RMSStrided(buf, len(buf)/stride, stride)
	if sigma0 == 0 {
		sigma0 = 1
	}
	s := t.cfg.etaScale()
	sigmaMid := sigma0 * math.Sqrt(float64(t.k))
	return Thresholds{
		Eta1:        s * roundoff.EtaStage1(t.k, sigma0),
		Eta2:        s * roundoff.EtaStage2(t.k, t.n1, sigma0),
		EtaMemCross: s * roundoff.EtaAccumulated(t.n1, sigmaMid*maxWeight(t.n1)),
		EtaMemOut:   s * roundoff.EtaAccumulated(t.n, sigma0*math.Sqrt(float64(t.n))),
	}
}
