package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ftfft/internal/checksum"
	"ftfft/internal/fault"
	"ftfft/internal/fft"
	"ftfft/internal/roundoff"
)

// ErrUncorrectable is returned when a transform exhausted its retry budget
// without producing a verified result; the output must not be trusted.
var ErrUncorrectable = errors.New("core: fault could not be corrected within the retry budget")

// Transformer executes protected (or plain) forward FFTs of a fixed size.
// It owns all working storage, so a Transformer is NOT safe for concurrent
// use; create one per goroutine. The FFT plans and twiddle tables are built
// once here ("plan time", as FFTW does), while checksum vectors are computed
// inside Transform — they are part of the fault-tolerance overhead the paper
// measures — into storage the Transformer owns, so the optimized protected
// schemes allocate nothing per call.
type Transformer struct {
	n, m, k int
	cfg     Config

	planM *fft.Plan
	planK *fft.Plan

	// twiddle[j*k+i] = ω_n^{i·j}: the inter-layer twiddle table, column-major
	// so stage-2 column j reads its k twiddles twiddle[j*k:(j+1)*k]
	// contiguously.
	twiddle []complex128

	// work is the k×m row-major intermediate (W).
	work []complex128
	// bufA/bufB/bufC are gather / twiddled-input / sub-FFT-output buffers
	// of length max(m, k).
	bufA, bufB, bufC []complex128

	// Per-sub-FFT checksum pair storage, reused across calls.
	inPairs  []checksum.Pair // k entries (stage-1 sub-inputs)
	rowPairs []checksum.Pair // k entries (intermediate rows, Fig. 2)
	colPairs []checksum.Pair // m entries (intermediate columns)
	outPairs []checksum.Pair // m entries (output column groups, Fig. 2)

	// DMR checksum-vector storage for the online schemes: cm/cmDup hold the
	// two computations of CheckVector(m), ck/ckDup those of CheckVector(k).
	cm, cmDup, ck, ckDup []complex128
	// ra holds the optimized offline scheme's CheckVector(n).
	ra []complex128
	// acc accumulates the stage-2 input pairs of the optimized memory
	// scheme (§4.3); its weights alias ck.
	acc *checksum.Accumulator

	// ctx is the in-flight TransformContext's cancellation context, checked
	// at sub-FFT boundaries; nil between calls.
	ctx context.Context

	// ds/ss are the in-flight call's dst and src element strides (1 for the
	// contiguous entry points). Like ctx they are call-scoped state: every
	// scheme indexes the caller's arrays through them, so the same protected
	// pipeline serves contiguous vectors and non-contiguous axis lines.
	ds, ss int
}

// canceled reports the in-flight context's cancellation cause, if any. It is
// checked once per sub-FFT (O(√N) work between checks), so cancellation
// latency stays far below any per-transform deadline.
func (t *Transformer) canceled() error {
	if t.ctx == nil {
		return nil
	}
	return t.ctx.Err()
}

// New builds a Transformer for n-point forward transforms under cfg.
// Online schemes need a composite n ≥ 4; Plain and Offline accept any n the
// FFT engine accepts.
func New(n int, cfg Config) (*Transformer, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: invalid size %d", n)
	}
	t := &Transformer{n: n, cfg: cfg}
	var err error
	t.m, t.k, err = Split(n)
	if err != nil {
		if cfg.Scheme == Online {
			return nil, err
		}
		// Plain/Offline on indivisible sizes: degenerate single-layer
		// "decomposition" m=n, k=1.
		t.m, t.k = n, 1
	}
	if t.planM, err = fft.NewPlanConfig(t.m, fft.Forward, cfg.planConfig()); err != nil {
		return nil, err
	}
	if t.planK, err = fft.NewPlanConfig(t.k, fft.Forward, cfg.planConfig()); err != nil {
		return nil, err
	}
	t.twiddle = twiddleTable(n, t.m, t.k)
	t.work = make([]complex128, n)
	bufLen := t.m
	if t.k > bufLen {
		bufLen = t.k
	}
	t.bufA = make([]complex128, bufLen)
	t.bufB = make([]complex128, bufLen)
	t.bufC = make([]complex128, bufLen)
	t.inPairs = make([]checksum.Pair, t.k)
	t.rowPairs = make([]checksum.Pair, t.k)
	t.colPairs = make([]checksum.Pair, t.m)
	t.outPairs = make([]checksum.Pair, t.m)
	switch {
	case cfg.Scheme == Online:
		t.cm, t.cmDup = make([]complex128, t.m), make([]complex128, t.m)
		t.ck, t.ckDup = make([]complex128, t.k), make([]complex128, t.k)
		if cfg.MemoryFT && cfg.Variant == Optimized {
			t.acc = checksum.NewAccumulator(t.ck, t.m)
		}
	case cfg.Scheme == Offline && cfg.Variant == Optimized:
		t.ra = make([]complex128, n)
	}
	return t, nil
}

// N returns the transform size.
func (t *Transformer) N() int { return t.n }

// Layout returns the two-layer decomposition (m, k) with n = m·k.
func (t *Transformer) Layout() (m, k int) { return t.m, t.k }

// Transform computes the forward DFT of src into dst under the configured
// protection scheme. dst and src must each have length N and must not
// overlap. When memory protection is enabled and an input memory fault is
// detected, src is repaired in place (that is the scheme's defining
// behaviour). The returned Report is valid even when an error is returned.
func (t *Transformer) Transform(dst, src []complex128) (Report, error) {
	return t.TransformContext(context.Background(), dst, src)
}

// TransformContext is Transform with cancellation: ctx is checked at every
// sub-FFT boundary, and a canceled transform returns ctx.Err() with dst in
// an unspecified state.
func (t *Transformer) TransformContext(ctx context.Context, dst, src []complex128) (Report, error) {
	if len(dst) < t.n || len(src) < t.n {
		return Report{}, fmt.Errorf("core: buffers too short: dst=%d src=%d need %d", len(dst), len(src), t.n)
	}
	return t.TransformStrided(ctx, dst[:t.n], src[:t.n], 1, 1)
}

// TransformStrided computes the forward DFT of the strided logical vector
// src[0], src[srcStride], …, src[(N-1)·srcStride] into dst[0], dst[dstStride],
// …, under the configured protection — the entry point N-dimensional axis
// passes use to transform non-contiguous lines without a gather/scatter
// round trip. The arithmetic is bit-identical to gathering the line into a
// contiguous buffer, calling TransformContext, and scattering the result:
// only the addressing changes, never the operation order.
//
// dst and src may address the same strided line (the in-place axis passes of
// an N-D transform): every scheme except Offline fully consumes the input
// before the first output element is written. The Offline scheme's restart
// path re-reads src after dst was written, so offline callers must stage an
// aliased input into a private buffer first.
func (t *Transformer) TransformStrided(ctx context.Context, dst, src []complex128, dstStride, srcStride int) (Report, error) {
	if dstStride < 1 || srcStride < 1 {
		return Report{}, fmt.Errorf("core: invalid strides dst=%d src=%d", dstStride, srcStride)
	}
	if need := (t.n-1)*dstStride + 1; len(dst) < need {
		return Report{}, fmt.Errorf("core: dst too short for stride %d: %d < %d", dstStride, len(dst), need)
	}
	if need := (t.n-1)*srcStride + 1; len(src) < need {
		return Report{}, fmt.Errorf("core: src too short for stride %d: %d < %d", srcStride, len(src), need)
	}
	t.ctx, t.ds, t.ss = ctx, dstStride, srcStride
	defer func() { t.ctx, t.ds, t.ss = nil, 0, 0 }()
	switch t.cfg.Scheme {
	case Plain:
		// Memory fault sites are visited even unprotected — faults are
		// physical events that strike whether or not anyone checks. This
		// is what the Table 6 "NoCorrection" row measures.
		fault.Visit(t.cfg.Injector, fault.SiteInputMemory, 0, src, t.n, t.ss)
		if err := t.plain(dst, src); err != nil {
			return Report{}, err
		}
		fault.Visit(t.cfg.Injector, fault.SiteFullFFT, 0, dst, t.n, t.ds)
		fault.Visit(t.cfg.Injector, fault.SiteOutputMemory, 0, dst, t.n, t.ds)
		return Report{}, nil
	case Offline:
		return t.offline(dst, src, t.thresholds(src))
	case Online:
		th := t.thresholds(src)
		if t.cfg.MemoryFT {
			if t.cfg.Variant == Optimized {
				return t.onlineMemOpt(dst, src, th)
			}
			return t.onlineMemNaive(dst, src, th)
		}
		return t.onlineComp(dst, src, th)
	default:
		return Report{}, fmt.Errorf("core: unknown scheme %d", t.cfg.Scheme)
	}
}

// thresholds derives the η values for this input, unless overridden.
func (t *Transformer) thresholds(src []complex128) Thresholds {
	if t.cfg.Thresholds != nil {
		return *t.cfg.Thresholds
	}
	// Sample the input RMS (≤1024 probes) — O(N/stride) so the derivation
	// itself adds no measurable overhead. Probe positions are chosen in
	// logical coordinates, so a strided call samples the same elements (and
	// derives bit-identical thresholds) as the contiguous equivalent.
	stride := t.n / 1024
	if stride < 1 {
		stride = 1
	}
	probes := t.n / stride
	sigma0 := roundoff.RMSStrided(src, probes, stride*t.ss)
	if sigma0 == 0 {
		sigma0 = 1
	}
	s := t.cfg.etaScale()
	sigmaMid := sigma0 * sqrtF(t.m)
	return Thresholds{
		Eta1:        s * roundoff.EtaStage1(t.m, sigma0),
		Eta2:        s * roundoff.EtaStage2(t.k, t.m, sigma0),
		EtaOffline:  s * roundoff.EtaOffline(t.n, sigma0),
		EtaMemCross: s * roundoff.EtaAccumulated(t.k, sigmaMid*maxWeight(t.k)),
		EtaMemOut:   s * roundoff.EtaAccumulated(t.n, sigma0*sqrtF(t.n)),
	}
}

func sqrtF(n int) float64 { return math.Sqrt(float64(n)) }

// maxWeight bounds |(rA)_j| for an n-point check vector: ≈ √3·3n/(2π),
// clamped below by 1.
func maxWeight(n int) float64 {
	w := 0.827 * float64(n)
	if w < 1 {
		return 1
	}
	return w
}

// plain is the unprotected two-layer baseline ("FFTW" in the figures). The
// stage-1 sub-FFTs read their strided inputs straight from src and the
// twiddle multiplication is fused into the column gather, exactly as in the
// optimized memory-protected path, so scheme comparisons isolate checksum
// cost.
func (t *Transformer) plain(dst, src []complex128) error {
	m, k := t.m, t.k
	ds, ss := t.ds, t.ss
	for i := 0; i < k; i++ {
		if err := t.canceled(); err != nil {
			return err
		}
		t.planM.ExecuteStrided(t.work[i*m:(i+1)*m], src[i*ss:], k*ss)
	}
	for j := 0; j < m; j++ {
		if err := t.canceled(); err != nil {
			return err
		}
		tw := t.twiddle[j*k : (j+1)*k]
		for i, w := range tw {
			t.bufB[i] = t.work[i*m+j] * w
		}
		t.planK.Execute(t.bufC[:k], t.bufB[:k])
		scatter(dst[j*ds:], t.bufC[:k], k, m*ds)
	}
	return nil
}

// gather copies the strided elements src[0], src[stride], … into dst[0..n-1].
func gather(dst, src []complex128, n, stride int) {
	idx := 0
	for j := 0; j < n; j++ {
		dst[j] = src[idx]
		idx += stride
	}
}

// scatter copies dst[j*stride] = src[j] for j in [0, n).
func scatter(dst, src []complex128, n, stride int) {
	idx := 0
	for j := 0; j < n; j++ {
		dst[idx] = src[j]
		idx += stride
	}
}
