package ftfft_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ftfft"
	"ftfft/internal/dft"
)

// realSizes spans the even sizes the real path supports: the n=2 degenerate
// case, powers of two, and mixed-radix halves, up to 2^12.
var realSizes = []int{2, 4, 8, 16, 24, 64, 120, 256, 1000, 1024, 4096}

// TestRealMatchesReference is the real half of the PR 6 property matrix:
// NewReal against the O(n²) real reference DFT and a forward∘inverse round
// trip, across even sizes and every protection level.
func TestRealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, prot := range fuzzProtections {
		for _, n := range realSizes {
			tr, err := ftfft.NewReal(n, ftfft.WithProtection(prot))
			if err != nil {
				if n >= 8 && n%4 == 0 {
					t.Fatalf("n=%d prot=%v: %v", n, prot, err)
				}
				continue // online schemes reject tiny/prime half lengths
			}
			if tr.Len() != n || tr.SpectrumLen() != n/2+1 || tr.Protection() != prot {
				t.Fatalf("n=%d: accessors wrong: %d %d %v", n, tr.Len(), tr.SpectrumLen(), tr.Protection())
			}
			src := make([]float64, n)
			for i := range src {
				src[i] = rng.Float64()*2 - 1
			}
			want := dft.RealTransform(src)
			got := make([]complex128, tr.SpectrumLen())
			rep, err := tr.Forward(bg, got, src)
			if err != nil {
				t.Fatalf("n=%d prot=%v: Forward: %v", n, prot, err)
			}
			if !rep.Clean() {
				t.Fatalf("n=%d prot=%v: fault activity on a fault-free run: %+v", n, prot, rep)
			}
			tol := 1e-10 * float64(n) * (1 + maxAbs(want))
			if d := maxAbsDiff(got, want); d > tol {
				t.Fatalf("n=%d prot=%v: spectrum diverged from reference by %g (tol %g)", n, prot, d, tol)
			}
			back := make([]float64, n)
			if _, err := tr.Inverse(bg, back, got); err != nil {
				t.Fatalf("n=%d prot=%v: Inverse: %v", n, prot, err)
			}
			for i := range src {
				if d := math.Abs(back[i] - src[i]); d > tol {
					t.Fatalf("n=%d prot=%v: round trip sample %d off by %g (tol %g)", n, prot, i, d, tol)
				}
			}
		}
	}
}

// TestRealFaultInjection drives injected faults through the public real path:
// the inner complex transform's ABFT must detect and correct them, and the
// report must show the activity.
func TestRealFaultInjection(t *testing.T) {
	const n = 512
	src := make([]float64, n)
	rng := rand.New(rand.NewSource(23))
	for i := range src {
		src[i] = rng.Float64()*2 - 1
	}
	want := dft.RealTransform(src)
	cases := map[string]struct {
		prot  ftfft.Protection
		fault ftfft.Fault
	}{
		"online-arith": {
			ftfft.OnlineABFT,
			ftfft.Fault{Site: ftfft.SiteSubFFT2, Rank: ftfft.AnyRank, Index: 2, Mode: ftfft.AddConstant, Value: 25},
		},
		"online-memory": {
			ftfft.OnlineABFTMemory,
			ftfft.Fault{Site: ftfft.SiteIntermediateMemory, Rank: ftfft.AnyRank, Index: 7, Mode: ftfft.SetConstant, Value: 4},
		},
		"offline-restart": {
			ftfft.OfflineABFT,
			ftfft.Fault{Site: ftfft.SiteFullFFT, Rank: ftfft.AnyRank, Index: 1, Mode: ftfft.AddConstant, Value: 30},
		},
	}
	for name, tc := range cases {
		sched := ftfft.NewFaultSchedule(5, tc.fault)
		tr, err := ftfft.NewReal(n, ftfft.WithProtection(tc.prot), ftfft.WithInjector(sched))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := make([]complex128, tr.SpectrumLen())
		rep, err := tr.Forward(bg, got, src)
		if err != nil {
			t.Fatalf("%s: Forward under fault: %v", name, err)
		}
		if rep.Clean() {
			t.Fatalf("%s: injected fault left no report trace: %+v", name, rep)
		}
		tol := 1e-9 * float64(n) * (1 + maxAbs(want))
		if d := maxAbsDiff(got, want); d > tol {
			t.Fatalf("%s: fault not corrected: spectrum off by %g (tol %g)", name, d, tol)
		}
	}
}

// TestRealRejectsOptions pins NewReal's option contract: the real path is
// sequential 1-D, so geometry/parallelism options are construction errors.
func TestRealRejectsOptions(t *testing.T) {
	bad := map[string][]ftfft.Option{
		"ranks":     {ftfft.WithRanks(4)},
		"dims":      {ftfft.WithDims(16, 16)},
		"shape":     {ftfft.WithShape(16, 16)},
		"workers":   {ftfft.WithWorkers(2)},
		"transport": {ftfft.WithRanks(2), ftfft.WithTransport(nil)},
	}
	for name, opts := range bad {
		if _, err := ftfft.NewReal(256, opts...); err == nil {
			t.Errorf("%s: option accepted by NewReal", name)
		}
	}
	if _, err := ftfft.NewReal(255); err == nil {
		t.Error("odd size accepted by NewReal")
	}
	if _, err := ftfft.NewReal(0); err == nil {
		t.Error("zero size accepted by NewReal")
	}
}

// TestRealConcurrent exercises the context pool: concurrent Forward calls on
// one plan must each produce the correct spectrum.
func TestRealConcurrent(t *testing.T) {
	const n = 1024
	tr, err := ftfft.NewReal(n, ftfft.WithProtection(ftfft.OnlineABFT))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.Float64()*2 - 1
	}
	want := dft.RealTransform(src)
	tol := 1e-10 * float64(n) * (1 + maxAbs(want))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]complex128, tr.SpectrumLen())
			for it := 0; it < 10; it++ {
				if _, err := tr.Forward(bg, got, src); err != nil {
					t.Errorf("concurrent Forward: %v", err)
					return
				}
				if d := maxAbsDiff(got, want); d > tol {
					t.Errorf("concurrent Forward diverged by %g", d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRealAllocs pins the steady-state allocation contract of the real path:
// zero allocs/op unprotected, and for protected schemes exact parity with
// the same-protection complex transform of the inner (half) size — the
// pack/untangle wrapper itself must never allocate. (The optimized complex
// path recomputes its checksum vectors per call into owned storage, so the
// budget is 0 for both protection levels here.)
func TestRealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	const n = 1024
	for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFTMemory} {
		tr, err := ftfft.NewReal(n, ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		src := make([]float64, n)
		for i := range src {
			src[i] = float64(i%13) - 6
		}
		spec := make([]complex128, tr.SpectrumLen())
		back := make([]float64, n)
		if _, err := tr.Forward(bg, spec, src); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Inverse(bg, back, spec); err != nil {
			t.Fatal(err)
		}

		// Budget: what the inner-size complex transform allocates per call
		// under the same protection (0 for None).
		inner, err := ftfft.New(n/2, ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		csrc := make([]complex128, n/2)
		cdst := make([]complex128, n/2)
		if _, err := inner.Forward(bg, cdst, csrc); err != nil {
			t.Fatal(err)
		}
		budget := testing.AllocsPerRun(20, func() {
			if _, err := inner.Forward(bg, cdst, csrc); err != nil {
				t.Fatal(err)
			}
		})
		if prot == ftfft.None && budget != 0 {
			t.Fatalf("complex baseline lost its 0 allocs/op: %v", budget)
		}

		fwd := testing.AllocsPerRun(20, func() {
			if _, err := tr.Forward(bg, spec, src); err != nil {
				t.Fatal(err)
			}
		})
		if fwd > budget {
			t.Errorf("prot=%v: Forward %v allocs/op, inner complex budget %v", prot, fwd, budget)
		}
		inv := testing.AllocsPerRun(20, func() {
			if _, err := tr.Inverse(bg, back, spec); err != nil {
				t.Fatal(err)
			}
		})
		if inv > budget {
			t.Errorf("prot=%v: Inverse %v allocs/op, inner complex budget %v", prot, inv, budget)
		}
	}
}
