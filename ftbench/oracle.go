package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"ftfft"
	"ftfft/internal/dft"
)

// Inputs and the output oracle. Every input is drawn from the workload seed;
// every reference spectrum comes from the unprotected public path, computed
// once at set-up outside all timers, and is itself validated against the
// direct O(n) DFT sum on a seeded sample of bins. Each timed output is then
// compared in full against its reference with a relative-L2 tolerance.

// rngFor derives an independent stream for one purpose from the workload
// seed, so adding a stream never shifts the inputs of another.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// complexInputs returns count vectors of n samples whose real and imaginary
// parts are U(-1,1), the paper's §9 input distribution.
func complexInputs(seed int64, stream string, count, n int) [][]complex128 {
	rng := rngFor(seed, stream)
	out := make([][]complex128, count)
	for i := range out {
		x := make([]complex128, n)
		for j := range x {
			x[j] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		out[i] = x
	}
	return out
}

// realInputs returns count vectors of n U(-1,1) real samples.
func realInputs(seed int64, stream string, count, n int) [][]float64 {
	rng := rngFor(seed, stream)
	out := make([][]float64, count)
	for i := range out {
		x := make([]float64, n)
		for j := range x {
			x[j] = 2*rng.Float64() - 1
		}
		out[i] = x
	}
	return out
}

// tolerance is the relative-L2 error an output may show against its
// reference: a generous multiple of the round-off two different O(n log n)
// paths accumulate (ε·log₂n each). A fault inside the model moves the error
// by many orders of magnitude more (an element off by 1 in a 2^16 spectrum
// whose norm is about 5e4 is a 2e-5 relative error).
func tolerance(n int) float64 {
	return 64 * 0x1p-52 * math.Log2(float64(n))
}

// binTol bounds |X[k] − direct sum| / rms(X) when a reference is validated:
// the direct sum's own round-off grows like ε·√n, far below this, and a
// wrong reference is off by O(1) of the bin magnitude.
const binTol = 1e-9

// reference is one input with its validated reference output.
type reference struct {
	x     []complex128 // complex input (nil for a real input)
	xr    []float64    // real input
	want  []complex128 // reference output
	norm2 float64      // Σ|want|²
	tol   float64
}

func newReference(x []complex128, xr []float64, want []complex128, n int) *reference {
	r := &reference{x: x, xr: xr, want: want, tol: tolerance(n)}
	for _, v := range want {
		r.norm2 += real(v)*real(v) + imag(v)*imag(v)
	}
	return r
}

// relErr is ‖got − want‖₂ / ‖want‖₂.
func (r *reference) relErr(got []complex128) float64 {
	if len(got) != len(r.want) {
		return math.Inf(1)
	}
	var d2 float64
	for i, v := range got {
		e := v - r.want[i]
		d2 += real(e)*real(e) + imag(e)*imag(e)
	}
	return math.Sqrt(d2 / r.norm2)
}

// validate checks the reference against direct(k), the direct DFT sum of
// bin k, on bin 0 and a seeded sample of other bins.
func (r *reference) validate(rng *rand.Rand, direct func(k int) complex128) error {
	rms := math.Sqrt(r.norm2 / float64(len(r.want)))
	bins := []int{0}
	for i := 0; i < 6; i++ {
		bins = append(bins, rng.Intn(len(r.want)))
	}
	for _, k := range bins {
		if d := abs(r.want[k]-direct(k)) / rms; !(d <= binTol) {
			return fmt.Errorf("reference bin %d of %d is off the direct DFT sum by %.3g of rms", k, len(r.want), d)
		}
	}
	return nil
}

func abs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

// directBin is Σ_j x[j]·ω_n^{sign·jk} (scaled by 1/n when inverse), the
// textbook DFT of one bin.
func directBin(x []complex128, k int, inverse bool) complex128 {
	n := len(x)
	var s complex128
	for j, v := range x {
		e := j * k % n
		if inverse {
			s += v * dft.OmegaInv(n, e)
		} else {
			s += v * dft.Omega(n, e)
		}
	}
	if inverse {
		s /= complex(float64(n), 0)
	}
	return s
}

func directRealBin(x []float64, k int) complex128 {
	n := len(x)
	var s complex128
	for j, v := range x {
		s += complex(v, 0) * dft.Omega(n, j*k%n)
	}
	return s
}

// direct2DBin is bin (k/cols, k%cols) of the row-major rows×cols 2-D DFT.
func direct2DBin(x []complex128, rows, cols, k int) complex128 {
	k0, k1 := k/cols, k%cols
	var s complex128
	for j0 := 0; j0 < rows; j0++ {
		var row complex128
		for j1 := 0; j1 < cols; j1++ {
			row += x[j0*cols+j1] * dft.Omega(cols, j1*k1%cols)
		}
		s += row * dft.Omega(rows, j0*k0%rows)
	}
	return s
}

// complexRefs computes and validates one reference per input with the
// unprotected public path built from opts.
func complexRefs(seed int64, stream string, inputs [][]complex128, inverse bool, opts ...ftfft.Option) ([]*reference, error) {
	n := len(inputs[0])
	plan, err := ftfft.New(n, append([]ftfft.Option{ftfft.WithProtection(ftfft.None)}, opts...)...)
	if err != nil {
		return nil, err
	}
	rows, cols := 0, 0
	if dims := plan.Dims(); len(dims) == 2 {
		rows, cols = dims[0], dims[1]
	}
	rng := rngFor(seed, stream+"/bins")
	refs := make([]*reference, len(inputs))
	for i, x := range inputs {
		want := make([]complex128, n)
		op := plan.Forward
		if inverse {
			op = plan.Inverse
		}
		if _, err := op(context.Background(), want, x); err != nil {
			return nil, fmt.Errorf("reference for %s: %w", stream, err)
		}
		r := newReference(x, nil, want, n)
		direct := func(k int) complex128 { return directBin(x, k, inverse) }
		if rows > 0 {
			direct = func(k int) complex128 { return direct2DBin(x, rows, cols, k) }
		}
		if err := r.validate(rng, direct); err != nil {
			return nil, fmt.Errorf("%s input %d: %w", stream, i, err)
		}
		refs[i] = r
	}
	return refs, nil
}

// realRefs is complexRefs for the real-input half spectrum.
func realRefs(seed int64, stream string, inputs [][]float64) ([]*reference, error) {
	n := len(inputs[0])
	plan, err := ftfft.NewReal(n, ftfft.WithProtection(ftfft.None))
	if err != nil {
		return nil, err
	}
	rng := rngFor(seed, stream+"/bins")
	refs := make([]*reference, len(inputs))
	for i, x := range inputs {
		want := make([]complex128, plan.SpectrumLen())
		if _, err := plan.Forward(context.Background(), want, x); err != nil {
			return nil, fmt.Errorf("reference for %s: %w", stream, err)
		}
		r := newReference(nil, x, want, n)
		if err := r.validate(rng, func(k int) complex128 { return directRealBin(x, k) }); err != nil {
			return nil, fmt.Errorf("%s input %d: %w", stream, i, err)
		}
		refs[i] = r
	}
	return refs, nil
}

// tally counts attempted operations, each failure kind, the fault-tolerance
// work the program reported, and the faults the benchmark injected. It is
// safe for concurrent use.
type tally struct {
	mu sync.Mutex
	c  failureCounts
}

type failureCounts struct {
	attempted     int64
	errs          int64 // error return
	uncorrectable int64 // Report.Uncorrectable without an error
	outOfTol      int64 // output outside the relative-L2 tolerance
	worst         float64

	rep                ftfft.Report // summed over every public call
	injected, detected int64
}

func (c failureCounts) failed() int64 { return c.errs + c.uncorrectable + c.outOfTol }

func (c *failureCounts) add(o failureCounts) {
	c.attempted += o.attempted
	c.errs += o.errs
	c.uncorrectable += o.uncorrectable
	c.outOfTol += o.outOfTol
	c.worst = max(c.worst, o.worst)
	c.rep.Add(o.rep)
	c.injected += o.injected
	c.detected += o.detected
}

// check records one operation: its error, its report and its output against
// the reference. It reports whether the operation succeeded.
func (t *tally) check(rep ftfft.Report, err error, ref *reference, got []complex128) bool {
	var e float64
	if err == nil && !rep.Uncorrectable {
		e = ref.relErr(got)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.c.attempted++
	switch {
	case err != nil:
		t.c.errs++
	case rep.Uncorrectable:
		t.c.uncorrectable++
	case !(e <= ref.tol):
		t.c.outOfTol++
	default:
		t.c.worst = max(t.c.worst, e)
		return true
	}
	return false
}

// fail records an operation that failed a check other than the spectrum
// comparison (a codec round trip that changed the payload, a block the
// checksum layer did not repair).
func (t *tally) fail() {
	t.mu.Lock()
	t.c.attempted++
	t.c.outOfTol++
	t.mu.Unlock()
}

func (t *tally) pass() {
	t.mu.Lock()
	t.c.attempted++
	t.mu.Unlock()
}

// report adds the fault-tolerance work one public call reported.
func (t *tally) report(rep ftfft.Report) {
	t.mu.Lock()
	t.c.rep.Add(rep)
	t.mu.Unlock()
}

// faults records injected faults and how many of them the report shows as
// detected.
func (t *tally) faults(injected int, rep ftfft.Report) {
	t.mu.Lock()
	t.c.injected += int64(injected)
	t.c.detected += int64(min(injected, rep.Detections))
	t.mu.Unlock()
}

func (t *tally) counts() failureCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}
