package checksum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"ftfft/internal/dft"
	"ftfft/internal/fft"
)

func randomVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestOmega3Algebra(t *testing.T) {
	w := Omega3(1)
	if cmplx.Abs(w*w*w-1) > 1e-15 {
		t.Fatalf("ω₃³ != 1: %v", w*w*w)
	}
	if cmplx.Abs(1+w+w*w) > 1e-15 {
		t.Fatalf("1+ω₃+ω₃² != 0: %v", 1+w+w*w)
	}
	for k := -6; k <= 6; k++ {
		want := cmplx.Pow(w, complex(float64(((k%3)+3)%3), 0))
		if cmplx.Abs(Omega3(k)-want) > 1e-14 {
			t.Fatalf("Omega3(%d) = %v, want %v", k, Omega3(k), want)
		}
	}
}

func TestCheckVectorMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 64, 128} {
		closed := CheckVector(n)
		naive := dft.CheckVectorNaive(n)
		for j := 0; j < n; j++ {
			if cmplx.Abs(closed[j]-naive[j]) > 1e-9*float64(n) {
				t.Fatalf("n=%d j=%d: closed %v naive %v", n, j, closed[j], naive[j])
			}
		}
	}
}

func TestCheckVectorTrigMatchesIncremental(t *testing.T) {
	// The incremental (optimized) path must agree with the per-element
	// trigonometric path to near machine precision even past resyncStep.
	for _, n := range []int{1 << 10, 1 << 14, 3000} {
		a := CheckVector(n)
		b := CheckVectorTrig(n)
		for j := 0; j < n; j++ {
			if cmplx.Abs(a[j]-b[j]) > 1e-10 {
				t.Fatalf("n=%d j=%d: incremental %v trig %v", n, j, a[j], b[j])
			}
		}
	}
}

func TestCheckVectorDegenerateDenominator(t *testing.T) {
	// When 3 | n there is a j with ω₃·ω_n^j == 1; the sum must be exactly n.
	for _, n := range []int{3, 6, 9, 12, 24} {
		closed := CheckVector(n)
		naive := dft.CheckVectorNaive(n)
		found := false
		for j := 0; j < n; j++ {
			if cmplx.Abs(closed[j]-complex(float64(n), 0)) < 1e-9*float64(n) {
				found = true
			}
			if cmplx.Abs(closed[j]-naive[j]) > 1e-9*float64(n) {
				t.Fatalf("n=%d j=%d mismatch: %v vs %v", n, j, closed[j], naive[j])
			}
		}
		if !found {
			t.Fatalf("n=%d: expected one degenerate entry equal to n", n)
		}
	}
}

// TestChecksumIdentity is the load-bearing ABFT identity: r·(Ax) = (rA)·x.
func TestChecksumIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 243, 256} {
		x := randomVec(rng, n)
		X := dft.Transform(x)
		lhs := DotOmega3(X)           // r·X
		rhs := Dot(CheckVector(n), x) // (rA)·x
		scale := 1 + cmplx.Abs(lhs)
		if cmplx.Abs(lhs-rhs) > 1e-8*float64(n)*scale {
			t.Fatalf("n=%d: r·X=%v (rA)·x=%v", n, lhs, rhs)
		}
	}
}

func TestChecksumIdentityInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 16, 64} {
		x := randomVec(rng, n)
		p := fft.MustPlan(n, fft.Inverse)
		X := make([]complex128, n)
		p.Execute(X, x)
		lhs := DotOmega3(X)
		rhs := Dot(CheckVectorInverse(n), x)
		if cmplx.Abs(lhs-rhs) > 1e-8*float64(n)*(1+cmplx.Abs(lhs)) {
			t.Fatalf("n=%d inverse identity: %v vs %v", n, lhs, rhs)
		}
	}
}

func TestChecksumDetectsCorruptedOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 128
	x := randomVec(rng, n)
	X := dft.Transform(x)
	in := Dot(CheckVector(n), x)
	// Uncorrupted: matches.
	if cmplx.Abs(DotOmega3(X)-in) > 1e-7*float64(n) {
		t.Fatal("clean output should verify")
	}
	// Corrupt any single element: must not match.
	for _, j := range []int{0, 1, 63, 127} {
		bad := append([]complex128(nil), X...)
		bad[j] += 1e-3
		if cmplx.Abs(DotOmega3(bad)-in) < 1e-4 {
			t.Fatalf("corruption at %d went undetected", j)
		}
	}
}

func TestDotOmega3MatchesDot(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		x := randomVec(rng, n)
		w := Weights(n)
		return cmplx.Abs(DotOmega3(x)-Dot(w, x)) <= 1e-10*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDotOmega3StridedMatchesGather demands bit-identity: the parallel FFT1
// verifies batched columns in place with the strided sum, and its verdicts
// must be those of the contiguous sum over a gathered copy.
func TestDotOmega3StridedMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := randomVec(rng, 600)
	for _, c := range []struct{ n, stride int }{{10, 3}, {100, 6}, {1, 5}, {7, 85}, {2, 4}, {8, 64}} {
		gathered := make([]complex128, c.n)
		for i := range gathered {
			gathered[i] = base[i*c.stride]
		}
		a := DotOmega3Strided(base, c.n, c.stride)
		b := DotOmega3(gathered)
		if a != b {
			t.Fatalf("n=%d stride=%d: %v vs %v", c.n, c.stride, a, b)
		}
	}
}

func TestDotStridedMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomVec(rng, 512)
	w := Weights(64)
	gathered := make([]complex128, 64)
	for i := range gathered {
		gathered[i] = base[i*8]
	}
	if d := cmplx.Abs(DotStrided(w, base, 64, 8) - Dot(w, gathered)); d > 1e-11 {
		t.Fatalf("strided dot mismatch: %g", d)
	}
}

func TestLocateAndCorrectProperty(t *testing.T) {
	// For any single corruption the pair must locate and correct exactly.
	// n divisible by 3 is excluded: there the numerator 1-ω₃^n vanishes and
	// rA is zero almost everywhere, so it cannot serve as a weight vector.
	// The paper's FFT sizes are powers of two, where this never happens.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		for n%3 == 0 {
			n++
		}
		w := CheckVector(n) // realistic weights: the modified checksums use rA
		x := randomVec(rng, n)
		stored := GeneratePair(w, x)
		j := rng.Intn(n)
		delta := complex(rng.NormFloat64()*10, rng.NormFloat64()*10)
		if cmplx.Abs(delta) < 1e-3 {
			delta += 1
		}
		x[j] += delta
		idx, corrected, ok := CorrectSingle(w, x, stored, 1e-9*float64(n))
		if !ok || !corrected || idx != j {
			return false
		}
		// Value must be restored to round-off.
		cur := GeneratePair(w, x)
		return cmplx.Abs(stored.D1-cur.D1) <= 1e-8*float64(n)*(1+cmplx.Abs(stored.D1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectSingleNoError(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 64
	w := CheckVector(n)
	x := randomVec(rng, n)
	stored := GeneratePair(w, x)
	idx, corrected, ok := CorrectSingle(w, x, stored, 1e-10*float64(n))
	if corrected || !ok {
		t.Fatalf("clean block mis-handled: idx=%d corrected=%v ok=%v", idx, corrected, ok)
	}
}

// TestRepairSingle feeds RepairSingle a pair the caller swept itself, as
// the in-place transformer's fused CMCV does: one corrupted element is
// located and restored, and a clean block is left alone.
func TestRepairSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 32
	x := randomVec(rng, n)
	w := CheckVector(n)
	stored := GeneratePair(w, x)
	if idx, corrected, ok := RepairSingle(w, x, stored, GeneratePair(w, x), 1e-10*float64(n)); corrected || !ok {
		t.Fatalf("clean block mis-handled: idx=%d corrected=%v ok=%v", idx, corrected, ok)
	}
	j := 11
	orig := x[j]
	x[j] = 42
	idx, corrected, ok := RepairSingle(w, x, stored, GeneratePair(w, x), 1e-10*float64(n))
	if !ok || !corrected || idx != j {
		t.Fatalf("correction failed: idx=%d corrected=%v ok=%v", idx, corrected, ok)
	}
	if cmplx.Abs(x[j]-orig) > 1e-9 {
		t.Fatalf("value not restored: %v vs %v", x[j], orig)
	}
}

func TestLocateRejectsGarbage(t *testing.T) {
	// Two simultaneous corruptions generally produce an inconsistent
	// quotient; Locate must not confidently return a wrong index for a
	// quotient with a large imaginary part.
	d := Pair{complex(1, 0), complex(3.2, 2.9)}
	if _, ok := Locate(d, 10); ok {
		t.Fatal("accepted a quotient with large imaginary part")
	}
	if _, ok := Locate(Pair{0, 1}, 10); ok {
		t.Fatal("accepted zero D1")
	}
	if _, ok := Locate(Pair{1, complex(20, 0)}, 10); ok {
		t.Fatal("accepted out-of-range index")
	}
}

func TestAccumulatorMatchesDirectPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows, cols := 16, 24
	w := CheckVector(rows)
	mat := make([][]complex128, rows)
	for i := range mat {
		mat[i] = randomVec(rng, cols)
	}
	acc := NewAccumulator(w, cols)
	for i, row := range mat {
		acc.AddRow(i, row)
	}
	for j := 0; j < cols; j++ {
		col := make([]complex128, rows)
		for i := 0; i < rows; i++ {
			col[i] = mat[i][j]
		}
		want := GeneratePair(w, col)
		got := acc.Column(j)
		if cmplx.Abs(got.D1-want.D1) > 1e-10*float64(rows) ||
			cmplx.Abs(got.D2-want.D2) > 1e-9*float64(rows*rows) {
			t.Fatalf("column %d: got %+v want %+v", j, got, want)
		}
	}
	acc.Reset()
	for j := 0; j < cols; j++ {
		if p := acc.Column(j); p.D1 != 0 || p.D2 != 0 {
			t.Fatalf("Reset left column %d non-zero", j)
		}
	}
}

func TestAccumulatorDetectsIntermediateCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows, cols := 8, 8
	w := CheckVector(rows)
	mat := make([][]complex128, rows)
	acc := NewAccumulator(w, cols)
	for i := range mat {
		mat[i] = randomVec(rng, cols)
		acc.AddRow(i, mat[i])
	}
	// Corrupt one matrix cell after accumulation ("memory fault between
	// the first part and the second part").
	ci, cj := 3, 5
	mat[ci][cj] += 7
	col := make([]complex128, rows)
	for i := 0; i < rows; i++ {
		col[i] = mat[i][cj]
	}
	idx, corrected, ok := CorrectSingle(w, col, acc.Column(cj), 1e-9)
	if !ok || !corrected || idx != ci {
		t.Fatalf("accumulated checksum failed to repair: idx=%d corrected=%v ok=%v", idx, corrected, ok)
	}
}

func TestWeightsLength(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		if got := len(Weights(n)); got != n {
			t.Fatalf("Weights(%d) length %d", n, got)
		}
	}
}

func TestGeneratePairMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 40
	w := CheckVector(n)
	x := randomVec(rng, n)
	p := GeneratePair(w, x)
	var d1, d2 complex128
	for j := n - 1; j >= 0; j-- { // reverse order: different summation order
		d1 += w[j] * x[j]
		d2 += complex(float64(j), 0) * w[j] * x[j]
	}
	if cmplx.Abs(p.D1-d1) > 1e-10*float64(n) || cmplx.Abs(p.D2-d2) > 1e-9*float64(n*n) {
		t.Fatalf("pair mismatch: %+v vs (%v,%v)", p, d1, d2)
	}
}

func TestLocatePrecisionNearBoundary(t *testing.T) {
	// Single error at the first and last index must locate exactly.
	rng := rand.New(rand.NewSource(11))
	n := 100
	w := CheckVector(n)
	for _, j := range []int{0, n - 1} {
		x := randomVec(rng, n)
		stored := GeneratePair(w, x)
		x[j] += 5
		d := stored.Sub(GeneratePair(w, x))
		got, ok := Locate(d, n)
		if !ok || got != j {
			t.Fatalf("boundary locate failed for j=%d: got %d ok=%v", j, got, ok)
		}
	}
	_ = math.Pi
}

// TestGatherPairMatchesGatherThenGenerate: the fused sweep must copy the
// strided block exactly and produce the pair GeneratePair computes over the
// gathered copy, bit for bit — including blocks with zero elements, whose
// index-weighted terms are signed zeros.
func TestGatherPairMatchesGatherThenGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 7, 64, 256, 1000} {
		w := CheckVector(n)
		for _, stride := range []int{1, 3, 256} {
			src := randomVec(rng, (n-1)*stride+1)
			src[0] = 0
			if n > 2 {
				src[2*stride] = complex(0, math.Copysign(0, -1))
			}
			want := make([]complex128, n)
			for j := range want {
				want[j] = src[j*stride]
			}
			wantPair := GeneratePair(w, want)
			got := make([]complex128, n)
			p := GatherPair(got, src, w, n, stride)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("n=%d stride=%d: gathered[%d] = %v, want %v", n, stride, j, got[j], want[j])
				}
			}
			if !sameBits(p.D1, wantPair.D1) || !sameBits(p.D2, wantPair.D2) {
				t.Fatalf("n=%d stride=%d: pair %+v, want %+v", n, stride, p, wantPair)
			}
		}
	}
}

// TestCheckVectorIntoMatchesCheckVector: writing into caller storage must
// not change one bit of the vector.
func TestCheckVectorIntoMatchesCheckVector(t *testing.T) {
	buf := make([]complex128, 3072)
	for _, n := range []int{1, 3, 64, 96, 3072} {
		want := CheckVector(n)
		got := CheckVectorInto(buf, n)
		if len(got) != n {
			t.Fatalf("n=%d: length %d", n, len(got))
		}
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("n=%d: element %d = %v, want %v", n, j, got[j], want[j])
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}
