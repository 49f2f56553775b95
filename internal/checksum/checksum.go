// Package checksum implements the checksum algebra the ABFT schemes are
// built on (paper §2.2, §3.2, §4.1, §4.3):
//
//   - the computational checksum vector r = (ω₃⁰, ω₃¹, …, ω₃^{N-1}) with
//     ω₃ = -1/2 + (√3/2)i, shown by Wang & Jha to be a valid ABFT encoding
//     for FFT;
//   - the closed-form input checksum vector rA, (rA)_j = (1-ω₃^N)/(1-ω₃ω_N^j),
//     which replaces per-element trigonometric evaluation (§7.1.1);
//   - one-pass weighted checksum pairs (d₁, d₂) = (Σ wⱼxⱼ, Σ j·wⱼxⱼ) used as
//     the modified memory checksums r′₁ = rA and (r′₂)ⱼ = j·(rA)ⱼ (§4.1);
//   - single-error location and correction from checksum differences;
//   - incremental (scatter-accumulated) checksum generation for the second
//     ABFT layer (§4.3).
//
// All strided variants exist because the decomposed sub-FFT inputs are
// non-contiguous (§4.4).
package checksum

import (
	"math"
	"math/cmplx"
)

// Omega3 returns ω₃^k, the powers of the first cube root of unity
// ω₃ = -1/2 + (√3/2)i chosen by the paper.
func Omega3(k int) complex128 {
	k %= 3
	if k < 0 {
		k += 3
	}
	switch k {
	case 0:
		return 1
	case 1:
		return omega3
	default:
		return omega3sq
	}
}

var (
	omega3   = complex(-0.5, math.Sqrt(3)/2)
	omega3sq = complex(-0.5, -math.Sqrt(3)/2)
)

// Weights returns the computational checksum vector r of length n:
// r_j = ω₃^j.
func Weights(n int) []complex128 {
	w := make([]complex128, n)
	for j := 0; j < n; j++ {
		w[j] = Omega3(j)
	}
	return w
}

// CheckVector returns the input checksum vector rA for an n-point forward
// DFT (A_{jt} = ω_n^{jt}, ω_n = exp(-2πi/n)) in closed form:
//
//	(rA)_j = Σ_t (ω₃·ω_n^j)^t = (1 - ω₃^n) / (1 - ω₃·ω_n^j)
//
// This is the paper's optimized 27N-operation path (§7.1.1): the
// trigonometric functions are replaced by incremental complex
// multiplications, re-synchronized from Sincos every resyncStep elements to
// bound phase drift at ~resyncStep·ε.
func CheckVector(n int) []complex128 {
	return checkVectorSigned(make([]complex128, n), -1, false)
}

// CheckVectorInto is CheckVector writing into dst[:n] instead of allocating;
// it returns dst[:n], bit-identical to CheckVector(n). Protected transforms
// use it to recompute their checksum vectors every call into reused storage.
func CheckVectorInto(dst []complex128, n int) []complex128 {
	return checkVectorSigned(dst[:n], -1, false)
}

// CheckVectorTrig is the naive evaluation of the same closed form with one
// trigonometric call per element — the expensive path the un-optimized
// offline scheme pays for (Fig. 7's first bar vs second bar).
func CheckVectorTrig(n int) []complex128 {
	return checkVectorSigned(make([]complex128, n), -1, true)
}

// CheckVectorInverse is CheckVector for the unscaled inverse kernel
// A_{jt} = ω_n^{-jt}.
func CheckVectorInverse(n int) []complex128 {
	return checkVectorSigned(make([]complex128, n), +1, false)
}

// resyncStep bounds the incremental rotation drift: |error| ≲ resyncStep·ε.
const resyncStep = 64

// degenerateGuard: below this |1-q| the weight is large and ill-conditioned
// (error amplified by 1/|den|²), so q is recomputed trigonometrically for
// that element. This keeps the optimized path's accuracy at the trig path's
// level exactly where it matters for detection thresholds.
const degenerateGuard = 0.05

// checkVectorSigned fills out with the len(out)-point check vector and
// returns it.
func checkVectorSigned(out []complex128, sign int, trig bool) []complex128 {
	n := len(out)
	num := 1 - Omega3(n)
	step := unit(sign, 1, n) // ω_n^{sign}
	var q complex128
	for j := 0; j < n; j++ {
		if trig || j%resyncStep == 0 {
			q = omega3 * unit(sign, j, n)
		} else {
			q *= step
		}
		den := 1 - q
		if a := cmplx.Abs(den); a < degenerateGuard {
			q = omega3 * unit(sign, j, n)
			den = 1 - q
			if cmplx.Abs(den) < 1e-9 {
				// Degenerate geometric ratio q == 1: the sum is exactly
				// n. Only possible when 3 | n.
				out[j] = complex(float64(n), 0)
				continue
			}
		}
		out[j] = num / den
	}
	return out
}

// unit returns exp(sign·2πi·k/n) with k reduced to the symmetric range.
func unit(sign, k, n int) complex128 {
	k %= n
	if 2*k > n {
		k -= n
	} else if 2*k <= -n {
		k += n
	}
	ang := float64(sign) * 2 * math.Pi * float64(k) / float64(n)
	s, c := math.Sincos(ang)
	return complex(c, s)
}

// Dot returns Σ w_j·x_j. len(w) must be ≥ len(x).
func Dot(w, x []complex128) complex128 {
	var sum complex128
	for j, v := range x {
		sum += w[j] * v
	}
	return sum
}

// GatherDot copies the strided block src[0], src[stride], …,
// src[(n-1)·stride] into dst[:n] and returns Σ w_j·dst_j from the same
// sweep, bit-identical to the copy followed by Dot(w, dst[:n]).
func GatherDot(dst, src, w []complex128, n, stride int) complex128 {
	var sum complex128
	dst, w = dst[:n], w[:n]
	idx := 0
	for j := range dst {
		v := src[idx]
		dst[j] = v
		sum += w[j] * v
		idx += stride
	}
	return sum
}

// DotStrided returns Σ_{j<n} w_j·x[j·stride].
func DotStrided(w, x []complex128, n, stride int) complex128 {
	var sum complex128
	for j := 0; j < n; j++ {
		sum += w[j] * x[j*stride]
	}
	return sum
}

// DotOmega3 returns Σ ω₃^j·x_j using the merged-factor evaluation the paper
// credits for reducing CCV to two complex multiplications (§7.1.1): bucket
// the elements by j mod 3, then rX = S₀ + ω₃·S₁ + ω₃²·S₂.
func DotOmega3(x []complex128) complex128 {
	var s0, s1, s2 complex128
	j := 0
	n := len(x)
	for ; j+3 <= n; j += 3 {
		s0 += x[j]
		s1 += x[j+1]
		s2 += x[j+2]
	}
	switch n - j {
	case 2:
		s1 += x[j+1]
		fallthrough
	case 1:
		s0 += x[j]
	}
	return s0 + omega3*s1 + omega3sq*s2
}

// DotOmega3Strided is DotOmega3 over x[0], x[stride], ..., x[(n-1)*stride].
// The sums accumulate in DotOmega3's order, so a strided read of the same
// values is bit-identical to the contiguous one.
func DotOmega3Strided(x []complex128, n, stride int) complex128 {
	var s0, s1, s2 complex128
	j, idx := 0, 0
	for ; j+3 <= n; j += 3 {
		s0 += x[idx]
		s1 += x[idx+stride]
		s2 += x[idx+2*stride]
		idx += 3 * stride
	}
	switch n - j {
	case 2:
		s1 += x[idx+stride]
		fallthrough
	case 1:
		s0 += x[idx]
	}
	return s0 + omega3*s1 + omega3sq*s2
}

// Pair is a weighted checksum pair protecting a block against a single
// corrupted element: D1 = Σ wⱼxⱼ locates nothing by itself but detects, and
// D2 = Σ j·wⱼxⱼ divides against D1 to locate (§3.2 with the §4.1 weights).
type Pair struct {
	D1 complex128
	D2 complex128
}

// GeneratePair computes the checksum pair of x under weights w in one pass.
func GeneratePair(w, x []complex128) Pair {
	var d1, d2 complex128
	for j, v := range x {
		t := w[j] * v
		d1 += t
		d2 += complex(float64(j), 0) * t
	}
	return Pair{d1, d2}
}

// GatherPair copies the strided block src[0], src[stride], …,
// src[(n-1)·stride] into dst[:n] and computes its checksum pair under w in
// the same sweep. The pair equals GeneratePair(w, dst[:n]) bit for bit on
// finite data: the index weight scales the real and imaginary parts
// directly, which differs from the complex product only in the sign of a
// zero term, and an accumulator that starts at +0 absorbs that.
func GatherPair(dst, src, w []complex128, n, stride int) Pair {
	var d1, d2 complex128
	dst, w = dst[:n], w[:n]
	idx := 0
	for j := range dst {
		v := src[idx]
		dst[j] = v
		t := w[j] * v
		f := float64(j)
		d1 += t
		d2 += complex(f*real(t), f*imag(t))
		idx += stride
	}
	return Pair{d1, d2}
}

// GeneratePairStrided computes the pair over x[0], x[stride], ….
func GeneratePairStrided(w, x []complex128, n, stride int) Pair {
	var d1, d2 complex128
	idx := 0
	for j := 0; j < n; j++ {
		t := w[j] * x[idx]
		d1 += t
		d2 += complex(float64(j), 0) * t
		idx += stride
	}
	return Pair{d1, d2}
}

// Sub returns the component-wise difference p - q.
func (p Pair) Sub(q Pair) Pair { return Pair{p.D1 - q.D1, p.D2 - q.D2} }

// Locate recovers the index of a single corrupted element from the checksum
// differences d = stored - recomputed: j = Re(d.D2/d.D1) rounded to the
// nearest integer. ok is false when d.D1 is too small to divide by (no
// detectable corruption) or when the quotient is not close to a real
// integer in [0, n) — the "wrong indexing" failure mode of Table 6.
func Locate(d Pair, n int) (j int, ok bool) {
	if cmplx.Abs(d.D1) == 0 {
		return 0, false
	}
	q := d.D2 / d.D1
	jf := real(q)
	j = int(math.Round(jf))
	if j < 0 || j >= n {
		return j, false
	}
	// The imaginary part and the rounding residue are pure round-off when a
	// genuine single error is present; reject gross inconsistency.
	if math.Abs(imag(q)) > 0.45 || math.Abs(jf-float64(j)) > 0.45 {
		return j, false
	}
	return j, true
}

// CorrectSingle verifies block x (contiguous) against the stored pair and, on
// mismatch, locates and repairs a single corrupted element in place.
// It returns the corrected index, whether a correction was applied, and
// whether the block now verifies. tol bounds |ΔD1| treated as round-off.
func CorrectSingle(w, x []complex128, stored Pair, tol float64) (idx int, corrected, ok bool) {
	return RepairSingle(w, x, stored, GeneratePair(w, x), tol)
}

// RepairSingle is CorrectSingle for a caller that already computed
// cur = GeneratePair(w, x) in a sweep of its own: the verification, the
// repair and the re-verification after a repair are the same.
func RepairSingle(w, x []complex128, stored, cur Pair, tol float64) (idx int, corrected, ok bool) {
	d := stored.Sub(cur)
	if cmplx.Abs(d.D1) <= tol {
		return 0, false, true
	}
	j, located := Locate(d, len(x))
	if !located {
		return j, false, false
	}
	// Correction: Δx_j = ΔD1 / w_j.
	x[j] += d.D1 / w[j]
	// Verify the repair.
	cur = GeneratePair(w, x)
	d = stored.Sub(cur)
	return j, true, cmplx.Abs(d.D1) <= tol
}

// Accumulator builds the second-layer input checksums incrementally (§4.3):
// the two-layer intermediate is a k×m matrix whose column j feeds the j-th
// k-point FFT; as each verified m-point FFT output row lands, AddRow folds it
// into every column's pair, so the intermediate is never re-read with stride
// for checksum generation.
type Accumulator struct {
	w   []complex128 // weights indexed by row (position within a column)
	cs1 []complex128 // one D1 slot per column
	cs2 []complex128 // one D2 slot per column
}

// NewAccumulator creates an accumulator for cols columns whose column entries
// are weighted by w (len(w) = number of rows).
func NewAccumulator(w []complex128, cols int) *Accumulator {
	return &Accumulator{
		w:   w,
		cs1: make([]complex128, cols),
		cs2: make([]complex128, cols),
	}
}

// AddRow folds row index i (length = cols) into all column checksums.
func (a *Accumulator) AddRow(i int, row []complex128) {
	wi := a.w[i]
	iwi := complex(float64(i), 0) * wi
	for j, v := range row {
		a.cs1[j] += wi * v
		a.cs2[j] += iwi * v
	}
}

// Column returns the accumulated pair for column j.
func (a *Accumulator) Column(j int) Pair { return Pair{a.cs1[j], a.cs2[j]} }

// Reset zeroes all column checksums for reuse.
func (a *Accumulator) Reset() {
	for j := range a.cs1 {
		a.cs1[j] = 0
		a.cs2[j] = 0
	}
}
