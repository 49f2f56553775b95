// Package fft is a from-scratch planned FFT engine, the stand-in for FFTW in
// this reproduction. It provides:
//
//   - a flat, iterative, cache-friendly power-of-two kernel: radix-4
//     decimation-in-time butterflies (plus a radix-2 fixup stage for odd
//     log2 n) over a precomputed bit-reversal permutation and per-stage
//     twiddle tables, served from a bounded shared table cache — the default
//     execution path for every power-of-two size, in and out of place;
//   - a planner that factors non-power-of-two N into radix stages (4, 2, 3,
//     5, 7 and generic small primes) with per-stage precomputed twiddle
//     tables, run by a recursive mixed-radix Cooley-Tukey executor with
//     specialized butterflies for radices 2, 3, 4 and 5;
//   - Bluestein's chirp-z algorithm for sizes containing large prime
//     factors, with the convolution length chosen by a stage-cost model
//     over the sizes the kernels handle cheaply (not pinned to the next
//     power of two);
//   - strided input execution, which the two-layer ABFT decomposition relies
//     on for its non-contiguous sub-FFTs, and batched column execution
//     (ExecuteColumns) for layers of many small transforms.
//
// The engine is deterministic and allocation-free on the hot path (scratch
// buffers are pooled per plan).
package fft

import (
	"fmt"
	"math"
	"sync"
)

// Sign selects the transform direction: the exponent of the kernel is
// exp(sign·2πi/N). Forward uses -1 (engineering convention, matching the
// paper's ω_N = exp(-2πi/N)); Inverse uses +1 and is unscaled.
type Sign int

const (
	// Forward is the forward DFT direction.
	Forward Sign = -1
	// Inverse is the unscaled inverse DFT direction. Divide by N to invert
	// a Forward transform exactly.
	Inverse Sign = +1
)

// maxGenericRadix is the largest prime handled by the O(r²) generic
// butterfly; larger prime factors switch the whole remaining size to
// Bluestein's algorithm.
const maxGenericRadix = 31

// Kernel identifies which execution engine a plan runs on.
type Kernel int

const (
	// KernelAuto lets the planner choose: the flat iterative kernel for
	// power-of-two sizes, the recursive mixed-radix walk otherwise.
	KernelAuto Kernel = iota
	// KernelFlat forces the flat iterative radix-4/2 kernel; only
	// power-of-two sizes qualify.
	KernelFlat
	// KernelRecursive forces the recursive mixed-radix executor — kept
	// selectable so benchmarks and cross-kernel tests can measure the flat
	// kernel against its predecessor on the same binary.
	KernelRecursive
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelFlat:
		return "flat"
	case KernelRecursive:
		return "recursive"
	default:
		return "unknown-kernel"
	}
}

// Plan holds the factorization and twiddle tables for transforms of a fixed
// size and direction. Plans are safe for concurrent use by multiple
// goroutines.
type Plan struct {
	n    int
	sign Sign

	// factors[i] is the radix of recursion level i; sizes[i] is the
	// sub-transform size at level i (sizes[0] == n). sizes[len(factors)]
	// is the leaf size: 1 normally, or the Bluestein remainder.
	factors []int
	sizes   []int

	// tw[i] holds the inter-stage twiddles for level i: for n' = sizes[i],
	// r = factors[i], m = n'/r, entry (t-1)*m + k2 is ω_{n'}^{sign·t·k2}
	// for t in [1,r).
	tw [][]complex128

	// radixTw[i] holds ω_r^{sign·j} for j in [0,r) at level i, used by the
	// generic butterfly.
	radixTw [][]complex128

	// blue is non-nil when the leaf size needs Bluestein's algorithm.
	blue *bluestein

	maxRadix int
	scratch  sync.Pool // of []complex128, length maxRadix
	work     sync.Pool // of []complex128, length n (non-power-of-two in-place path)

	// flat is the plan's iterative kernel state, resolved at plan time for
	// power-of-two sizes so execution does no lookup per call. The tables
	// (bit-reversal permutation, per-stage twiddles) come from the bounded
	// shared kernel cache (sharing across same-size plans) or, past the cap,
	// are plan-private — process memory is bounded either way. nil means the
	// plan runs the recursive mixed-radix executor.
	flat *flatState
}

// NewPlan creates a plan for size n and direction sign. n must be positive.
// Power-of-two sizes run the flat iterative kernel; every other size runs
// the recursive mixed-radix executor (with Bluestein leaves for large
// primes).
func NewPlan(n int, sign Sign) (*Plan, error) {
	return NewPlanKernel(n, sign, KernelAuto)
}

// NewPlanKernel is NewPlan with an explicit kernel choice. KernelFlat
// requires a power-of-two n; KernelRecursive is always accepted and exists
// so benchmarks and cross-kernel tests can pit the two engines against each
// other on the same binary.
func NewPlanKernel(n int, sign Sign, kernel Kernel) (*Plan, error) {
	return NewPlanConfig(n, sign, PlanConfig{Kernel: kernel})
}

// PlanConfig carries the plan-time knobs the autotuner (internal/tune) can
// set. The zero value reproduces NewPlan exactly — KernelAuto, heuristic
// Bluestein convolution lengths — so untuned plans stay bit-identical.
type PlanConfig struct {
	// Kernel forces the execution engine; KernelAuto keeps the planner's
	// choice (flat for powers of two).
	Kernel Kernel
	// ConvLen, when non-nil, chooses the Bluestein convolution length for a
	// leaf of the given size; a return ≤ 0 defers to the convCost heuristic,
	// anything else must satisfy m ≥ 2·leaf−1 (enforced at plan build).
	ConvLen func(leaf int) int
}

// NewPlanConfig is NewPlan with explicit knob settings; see PlanConfig.
func NewPlanConfig(n int, sign Sign, cfg PlanConfig) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fft: size must be positive, got %d", n)
	}
	if sign != Forward && sign != Inverse {
		return nil, fmt.Errorf("fft: sign must be Forward or Inverse, got %d", sign)
	}
	switch cfg.Kernel {
	case KernelAuto, KernelRecursive:
	case KernelFlat:
		if !isPow2(n) {
			return nil, fmt.Errorf("fft: the flat kernel needs a power-of-two size, got %d", n)
		}
	default:
		return nil, fmt.Errorf("fft: unknown kernel %d", int(cfg.Kernel))
	}
	p := &Plan{n: n, sign: sign}
	p.factorize()
	if cfg.Kernel != KernelRecursive && isPow2(n) {
		// Flat path: the recursive per-level twiddle tables are never read,
		// so only the factorization (cheap, kept for Factors()) is built.
		p.flat = flatStateFor(n, sign)
	} else {
		p.buildTwiddles()
		if leaf := p.sizes[len(p.factors)]; leaf > 1 {
			m := 0
			if cfg.ConvLen != nil {
				m = cfg.ConvLen(leaf)
			}
			if m <= 0 {
				m = convLen(leaf)
			}
			b, err := newBluestein(leaf, sign, m)
			if err != nil {
				return nil, err
			}
			p.blue = b
		}
	}
	if p.maxRadix < 1 {
		p.maxRadix = 1
	}
	p.scratch.New = func() any {
		s := make([]complex128, p.maxRadix)
		return &s
	}
	p.work.New = func() any {
		s := make([]complex128, p.n)
		return &s
	}
	return p, nil
}

// MustPlan is NewPlan that panics on error; for use with known-good sizes.
func MustPlan(n int, sign Sign) *Plan {
	p, err := NewPlan(n, sign)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the transform size.
func (p *Plan) N() int { return p.n }

// Direction returns the plan's transform direction.
func (p *Plan) Direction() Sign { return p.sign }

// Kernel returns the execution engine the plan resolved to.
func (p *Plan) Kernel() Kernel {
	if p.flat != nil {
		return KernelFlat
	}
	return KernelRecursive
}

// Factors returns a copy of the radix sequence chosen by the planner.
func (p *Plan) Factors() []int {
	out := make([]int, len(p.factors))
	copy(out, p.factors)
	return out
}

// factorize fills p.factors and p.sizes. It prefers radix 4, then 2, then
// odd primes in increasing order; any remainder with a prime factor larger
// than maxGenericRadix is left as a Bluestein leaf.
func (p *Plan) factorize() {
	n := p.n
	p.sizes = append(p.sizes, n)
	appendFactor := func(r int) {
		p.factors = append(p.factors, r)
		n /= r
		p.sizes = append(p.sizes, n)
		if r > p.maxRadix {
			p.maxRadix = r
		}
	}
	for n%4 == 0 {
		appendFactor(4)
	}
	for n%2 == 0 {
		appendFactor(2)
	}
	for f := 3; f <= maxGenericRadix; f += 2 {
		for n%f == 0 {
			appendFactor(f)
		}
	}
	// Whatever remains is 1 or has only prime factors > maxGenericRadix;
	// handled by Bluestein as a single leaf.
}

// buildTwiddles precomputes per-level twiddle tables.
func (p *Plan) buildTwiddles() {
	p.tw = make([][]complex128, len(p.factors))
	p.radixTw = make([][]complex128, len(p.factors))
	for i, r := range p.factors {
		np := p.sizes[i]
		m := np / r
		tab := make([]complex128, (r-1)*m)
		for t := 1; t < r; t++ {
			for k2 := 0; k2 < m; k2++ {
				tab[(t-1)*m+k2] = p.omega(np, t*k2)
			}
		}
		p.tw[i] = tab
		rt := make([]complex128, r)
		for j := 0; j < r; j++ {
			rt[j] = p.omega(r, j)
		}
		p.radixTw[i] = rt
	}
}

// omega returns exp(sign·2πi·k/n).
func (p *Plan) omega(n, k int) complex128 {
	k %= n
	if k < 0 {
		k += n
	}
	ang := float64(p.sign) * 2 * math.Pi * float64(k) / float64(n)
	s, c := math.Sincos(ang)
	return complex(c, s)
}

// Execute computes the transform of src into dst. dst and src must both have
// length N and must not overlap (use ExecuteInPlace for in-place operation).
// src is not modified.
func (p *Plan) Execute(dst, src []complex128) {
	p.ExecuteStrided(dst, src, 1)
}

// ExecuteStrided computes the transform of the N strided elements src[0],
// src[stride], ..., src[(N-1)*stride] into the contiguous dst[0..N-1].
// This is the primitive the decomposed ABFT sub-FFTs are built on.
func (p *Plan) ExecuteStrided(dst, src []complex128, stride int) {
	if len(dst) < p.n {
		panic(fmt.Sprintf("fft: dst too short: %d < %d", len(dst), p.n))
	}
	if need := (p.n-1)*stride + 1; len(src) < need {
		panic(fmt.Sprintf("fft: src too short for stride %d: %d < %d", stride, len(src), need))
	}
	if p.flat != nil {
		p.flat.gather(dst[:p.n], src, stride)
		p.flat.run(dst[:p.n], p.sign)
		return
	}
	sp := p.scratch.Get().(*[]complex128)
	p.rec(dst[:p.n], src, stride, 0, *sp)
	p.scratch.Put(sp)
}

// ExecuteColumns transforms every column of the row-major N×cols matrix src
// into the same layout in dst: dst[j·cols+c] is bin j of the DFT of column c
// (src[c], src[c+cols], …, src[(N-1)·cols+c]). Each column's result is
// bit-identical to ExecuteStrided(·, src[c:], cols). dst and src must both
// hold N·cols elements and must not overlap.
//
// The flat kernel batches the columns: it copies rows in bit-reversed order
// and runs every butterfly with the column loop innermost, so a many-column
// small-N batch (the parallel scheme's p-point and r-point layers) costs one
// sweep instead of one plan call per column. Other plans transform column by
// column through the plan's pooled work buffer.
func (p *Plan) ExecuteColumns(dst, src []complex128, cols int) {
	size := p.n * cols
	if len(dst) < size || len(src) < size {
		panic(fmt.Sprintf("fft: %d×%d columns need dst and src of %d, got %d and %d", p.n, cols, size, len(dst), len(src)))
	}
	if p.flat != nil {
		p.flat.gatherRows(dst[:size], src, cols)
		p.flat.runColumns(dst[:size], cols, p.sign)
		return
	}
	wp := p.work.Get().(*[]complex128)
	col := (*wp)[:p.n]
	for c := 0; c < cols; c++ {
		p.ExecuteStrided(col, src[c:], cols)
		idx := c
		for _, v := range col {
			dst[idx] = v
			idx += cols
		}
	}
	p.work.Put(wp)
}

// ExecuteInPlace transforms buf in place. With the flat kernel (power-of-two
// sizes) this is truly in place — an in-place bit-reversal permutation
// followed by the iterative stages, O(1) auxiliary space — and bit-identical
// to the out-of-place Execute (same stage sweep over the same value order).
// Other sizes round-trip through a pooled work buffer.
func (p *Plan) ExecuteInPlace(buf []complex128) {
	if len(buf) < p.n {
		panic(fmt.Sprintf("fft: buffer too short: %d < %d", len(buf), p.n))
	}
	if p.flat != nil {
		p.flat.permute(buf[:p.n])
		p.flat.run(buf[:p.n], p.sign)
		return
	}
	wp := p.work.Get().(*[]complex128)
	p.Execute(*wp, buf)
	copy(buf, *wp)
	p.work.Put(wp)
}

// Scale divides every element of buf by N; applying it after an Inverse plan
// of a Forward transform restores the original vector.
func (p *Plan) Scale(buf []complex128) {
	inv := complex(1/float64(p.n), 0)
	for i := range buf {
		buf[i] *= inv
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
