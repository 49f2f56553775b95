package core

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"ftfft/internal/dft"
)

func randomVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func maxAbs(a []complex128) float64 {
	var m float64
	for _, v := range a {
		if d := cmplx.Abs(v); d > m {
			m = d
		}
	}
	return m
}

// allConfigs enumerates every protection configuration.
func allConfigs() []Config {
	return []Config{
		{Scheme: Plain},
		{Scheme: Offline, Variant: Naive},
		{Scheme: Offline, Variant: Optimized},
		{Scheme: Offline, Variant: Naive, MemoryFT: true},
		{Scheme: Offline, Variant: Optimized, MemoryFT: true},
		{Scheme: Online, Variant: Naive},
		{Scheme: Online, Variant: Optimized},
		{Scheme: Online, Variant: Naive, MemoryFT: true},
		{Scheme: Online, Variant: Optimized, MemoryFT: true},
	}
}

func cfgName(c Config) string {
	name := c.Scheme.String() + "/" + c.Variant.String()
	if c.MemoryFT {
		name += "/mem"
	}
	return name
}

func TestSplit(t *testing.T) {
	cases := []struct{ n, m, k int }{
		{4, 2, 2}, {16, 4, 4}, {64, 8, 8}, {128, 16, 8}, {1 << 15, 256, 128},
		{12, 4, 3}, {100, 10, 10}, {1000, 40, 25},
	}
	for _, c := range cases {
		m, k, err := Split(c.n)
		if err != nil {
			t.Fatalf("Split(%d): %v", c.n, err)
		}
		if m != c.m || k != c.k {
			t.Errorf("Split(%d) = (%d,%d), want (%d,%d)", c.n, m, k, c.m, c.k)
		}
		if m*k != c.n || m < k {
			t.Errorf("Split(%d) invariant broken: %d×%d", c.n, m, k)
		}
	}
	for _, n := range []int{1, 2, 3, 7, 13, 97} {
		if _, _, err := Split(n); err == nil {
			t.Errorf("Split(%d) should fail", n)
		}
	}
}

// TestTwiddleTable pins the column-major storage order: entry j·k+i holds
// ω_n^{i·j}, so stage-2 column j reads tab[j*k:(j+1)*k] contiguously.
func TestTwiddleTable(t *testing.T) {
	for _, c := range []struct{ n, m, k int }{{48, 8, 6}, {1 << 16, 256, 256}, {3072, 64, 48}} {
		tab := twiddleTable(c.n, c.m, c.k)
		if len(tab) != c.n {
			t.Fatalf("n=%d: table length %d", c.n, len(tab))
		}
		for j := 0; j < c.m; j++ {
			for i := 0; i < c.k; i++ {
				want := dft.Omega(c.n, i*j)
				if cmplx.Abs(tab[j*c.k+i]-want) > 1e-12 {
					t.Fatalf("n=%d: tw[j=%d,i=%d] = %v, want %v", c.n, j, i, tab[j*c.k+i], want)
				}
			}
		}
	}
}

// TestAllSchemesMatchDFT is the core correctness matrix: every scheme on
// every size must agree with the direct DFT in fault-free runs, with a clean
// report.
func TestAllSchemesMatchDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 16, 64, 100, 256, 1024} {
		x := randomVec(rng, n)
		want := dft.Transform(x)
		tol := 1e-8 * float64(n) * (1 + maxAbs(want))
		for _, cfg := range allConfigs() {
			tr, err := New(n, cfg)
			if err != nil {
				t.Fatalf("n=%d %s: New: %v", n, cfgName(cfg), err)
			}
			dst := make([]complex128, n)
			src := append([]complex128(nil), x...)
			rep, err := tr.Transform(dst, src)
			if err != nil {
				t.Fatalf("n=%d %s: Transform: %v (report %+v)", n, cfgName(cfg), err, rep)
			}
			if !rep.Clean() {
				t.Errorf("n=%d %s: fault-free run reported activity: %+v", n, cfgName(cfg), rep)
			}
			if d := maxAbsDiff(dst, want); d > tol {
				t.Errorf("n=%d %s: diff %g > %g", n, cfgName(cfg), d, tol)
			}
		}
	}
}

// TestFaultFreeNoFalsePositives runs many fault-free transforms checking the
// thresholds never fire (the Table 4 throughput property).
func TestFaultFreeNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 4096
	for _, cfg := range allConfigs() {
		tr, err := New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]complex128, n)
		for run := 0; run < 20; run++ {
			src := randomVec(rng, n)
			rep, err := tr.Transform(dst, src)
			if err != nil {
				t.Fatalf("%s run %d: %v", cfgName(cfg), run, err)
			}
			if !rep.Clean() {
				t.Fatalf("%s run %d: false positive: %+v", cfgName(cfg), run, rep)
			}
		}
	}
}

func TestTransformNormalInput(t *testing.T) {
	// N(0,1) inputs (the other Table 4 distribution).
	rng := rand.New(rand.NewSource(3))
	n := 1024
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := dft.Transform(x)
	for _, cfg := range allConfigs() {
		tr, _ := New(n, cfg)
		dst := make([]complex128, n)
		src := append([]complex128(nil), x...)
		if rep, err := tr.Transform(dst, src); err != nil || !rep.Clean() {
			t.Fatalf("%s: err=%v rep=%+v", cfgName(cfg), err, rep)
		}
		if d := maxAbsDiff(dst, want); d > 1e-8*float64(n)*(1+maxAbs(want)) {
			t.Errorf("%s: diff %g", cfgName(cfg), d)
		}
	}
}

func TestOnlineRequiresComposite(t *testing.T) {
	if _, err := New(97, Config{Scheme: Online}); err == nil {
		t.Fatal("online scheme must reject prime sizes")
	}
	// Plain and offline fall back to a single layer.
	for _, s := range []Scheme{Plain, Offline} {
		tr, err := New(97, Config{Scheme: s, Variant: Optimized})
		if err != nil {
			t.Fatalf("scheme %v on prime size: %v", s, err)
		}
		rng := rand.New(rand.NewSource(4))
		x := randomVec(rng, 97)
		want := dft.Transform(x)
		dst := make([]complex128, 97)
		if _, err := tr.Transform(dst, x); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(dst, want); d > 1e-8*(1+maxAbs(want))*97 {
			t.Errorf("scheme %v prime size diff %g", s, d)
		}
	}
}

func TestBufferLengthValidation(t *testing.T) {
	tr, _ := New(16, Config{Scheme: Plain})
	short := make([]complex128, 8)
	full := make([]complex128, 16)
	if _, err := tr.Transform(short, full); err == nil {
		t.Fatal("short dst accepted")
	}
	if _, err := tr.Transform(full, short); err == nil {
		t.Fatal("short src accepted")
	}
}

func TestReportAddAndClean(t *testing.T) {
	var r Report
	if !r.Clean() {
		t.Fatal("zero report should be clean")
	}
	r.Add(Report{Detections: 2, MemCorrections: 1})
	r.Add(Report{CompRecomputations: 3, Uncorrectable: true})
	if r.Detections != 2 || r.MemCorrections != 1 || r.CompRecomputations != 3 || !r.Uncorrectable {
		t.Fatalf("bad accumulation: %+v", r)
	}
	if r.Clean() {
		t.Fatal("non-zero report should not be clean")
	}
}

func TestSchemeAgreementProperty(t *testing.T) {
	// All schemes produce (numerically) the same output for the same input.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns := []int{16, 36, 64, 144, 256}
		n := ns[rng.Intn(len(ns))]
		x := randomVec(rng, n)
		ref := make([]complex128, n)
		trPlain, _ := New(n, Config{Scheme: Plain})
		if _, err := trPlain.Transform(ref, x); err != nil {
			return false
		}
		for _, cfg := range allConfigs()[1:] {
			tr, err := New(n, cfg)
			if err != nil {
				return false
			}
			dst := make([]complex128, n)
			src := append([]complex128(nil), x...)
			if _, err := tr.Transform(dst, src); err != nil {
				return false
			}
			if maxAbsDiff(dst, ref) > 1e-8*float64(n)*(1+maxAbs(ref)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutAccessors(t *testing.T) {
	tr, _ := New(128, Config{Scheme: Online, Variant: Optimized})
	if tr.N() != 128 {
		t.Fatalf("N = %d", tr.N())
	}
	m, k := tr.Layout()
	if m*k != 128 || m < k {
		t.Fatalf("Layout = %d,%d", m, k)
	}
}
