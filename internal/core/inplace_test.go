package core

import (
	"math/rand"
	"testing"

	"ftfft/internal/dft"
	"ftfft/internal/fault"
)

func TestSplitInPlace(t *testing.T) {
	cases := []struct{ n, k, r int }{
		{4, 2, 1}, {16, 4, 1}, {64, 8, 1}, {256, 16, 1}, {1024, 32, 1},
		{8, 2, 2}, {32, 4, 2}, {128, 8, 2}, {512, 16, 2}, {2048, 32, 2},
		{36, 6, 1}, {72, 6, 2}, {100, 10, 1},
	}
	for _, c := range cases {
		k, r, err := splitInPlace(c.n)
		if err != nil {
			t.Fatalf("splitInPlace(%d): %v", c.n, err)
		}
		if k != c.k || r != c.r {
			t.Errorf("splitInPlace(%d) = (k=%d,r=%d), want (k=%d,r=%d)", c.n, k, r, c.k, c.r)
		}
		if k*r*k != c.n {
			t.Errorf("splitInPlace(%d): %d·%d·%d != n", c.n, k, r, k)
		}
	}
	if _, _, err := splitInPlace(6); err == nil {
		t.Error("splitInPlace(6) should fail")
	}
}

func TestInPlaceMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 16, 64, 256, 1024, 8, 32, 128, 512, 2048, 100} {
		for _, protect := range []bool{false, true} {
			cfg := Config{Scheme: Plain}
			if protect {
				cfg = Config{Scheme: Online, Variant: Optimized, MemoryFT: true}
			}
			tr, err := NewInPlace(n, cfg)
			if err != nil {
				t.Fatalf("NewInPlace(%d): %v", n, err)
			}
			x := randomVec(rng, n)
			want := dft.Transform(x)
			buf := append([]complex128(nil), x...)
			rep, err := tr.Transform(buf)
			if err != nil {
				t.Fatalf("n=%d protect=%v: %v (%+v)", n, protect, err, rep)
			}
			if protect && !rep.Clean() {
				t.Errorf("n=%d: fault-free protected run not clean: %+v", n, rep)
			}
			tol := 1e-8 * float64(n) * (1 + maxAbs(want))
			if d := maxAbsDiff(buf, want); d > tol {
				t.Errorf("n=%d protect=%v: diff %g > %g", n, protect, d, tol)
			}
		}
	}
}

func TestInPlaceDestroysInput(t *testing.T) {
	// The defining property: the buffer is overwritten.
	rng := rand.New(rand.NewSource(2))
	n := 256
	tr, _ := NewInPlace(n, Config{Scheme: Online, Variant: Optimized})
	x := randomVec(rng, n)
	buf := append([]complex128(nil), x...)
	if _, err := tr.Transform(buf); err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range buf {
		if buf[i] == x[i] {
			same++
		}
	}
	if same > n/8 {
		t.Fatalf("input mostly unchanged (%d/%d): not in place?", same, n)
	}
}

func TestInPlaceComputationalFaultRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{256, 512} { // r = 1 and r = 2 shapes
		x := randomVec(rng, n)
		want := dft.Transform(x)
		for occ := 1; occ <= 5; occ += 2 {
			sched := fault.NewSchedule(int64(occ), fault.Fault{
				Site: fault.SiteParallelFFT2, Rank: -1, Occurrence: occ * 3,
				Index: -1, Mode: fault.AddConstant, Value: 4,
			})
			tr, err := NewInPlace(n, Config{
				Scheme: Online, Variant: Optimized, MemoryFT: true, Injector: sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			buf := append([]complex128(nil), x...)
			rep, err := tr.Transform(buf)
			if err != nil {
				t.Fatalf("n=%d occ=%d: %v (%+v)", n, occ, err, rep)
			}
			if !sched.AllFired() {
				t.Fatalf("n=%d occ=%d: fault did not fire", n, occ)
			}
			if rep.Clean() {
				t.Fatalf("n=%d occ=%d: fault fired but report clean", n, occ)
			}
			tol := 1e-7 * float64(n) * (1 + maxAbs(want))
			if d := maxAbsDiff(buf, want); d > tol {
				t.Fatalf("n=%d occ=%d: diff %g (%+v)", n, occ, d, rep)
			}
		}
	}
}

// TestInPlaceIntermediateMemoryFaultRecovered strikes the layer-A output at
// rest. Layer B's CMCV, which rides the first DMR twiddle run, must repair
// the element and redo its product, so the Report holds exactly the one
// memory correction and no twiddle mismatch.
func TestInPlaceIntermediateMemoryFaultRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{256, 512} {
		x := randomVec(rng, n)
		want := dft.Transform(x)
		for _, idx := range []int{0, n / 3, n - 1} {
			sched := fault.NewSchedule(5, fault.Fault{
				Site: fault.SiteIntermediateMemory, Rank: -1, Index: idx,
				Mode: fault.AddConstant, Value: 11,
			})
			tr, err := NewInPlace(n, Config{
				Scheme: Online, Variant: Optimized, MemoryFT: true, Injector: sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			buf := append([]complex128(nil), x...)
			rep, err := tr.Transform(buf)
			if err != nil {
				t.Fatalf("n=%d idx=%d: %v (%+v)", n, idx, err, rep)
			}
			if !sched.AllFired() || rep != (Report{Detections: 1, MemCorrections: 1}) {
				t.Fatalf("n=%d idx=%d: fired=%v rep=%+v", n, idx, sched.AllFired(), rep)
			}
			tol := 1e-7 * float64(n) * (1 + maxAbs(want))
			if d := maxAbsDiff(buf, want); d > tol {
				t.Fatalf("n=%d idx=%d: diff %g", n, idx, d)
			}
		}
	}
}

func TestInPlaceTwiddleFaultRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 512
	x := randomVec(rng, n)
	want := dft.Transform(x)
	sched := fault.NewSchedule(6, fault.Fault{
		Site: fault.SiteTwiddle, Rank: -1, Occurrence: 2, Index: -1,
		Mode: fault.AddConstant, Value: 2,
	})
	tr, _ := NewInPlace(n, Config{
		Scheme: Online, Variant: Optimized, MemoryFT: true, Injector: sched,
	})
	buf := append([]complex128(nil), x...)
	rep, err := tr.Transform(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.AllFired() || rep.TwiddleCorrections == 0 {
		t.Fatalf("fired=%v rep=%+v", sched.AllFired(), rep)
	}
	if d := maxAbsDiff(buf, want); d > 1e-7*float64(n)*(1+maxAbs(want)) {
		t.Fatalf("diff %g", d)
	}
}

func TestInPlaceShapeAccessors(t *testing.T) {
	tr, _ := NewInPlace(512, Config{Scheme: Online, Variant: Optimized})
	if tr.N() != 512 {
		t.Fatalf("N = %d", tr.N())
	}
	k, r := tr.Shape()
	if k != 16 || r != 2 {
		t.Fatalf("Shape = (%d,%d), want (16,2)", k, r)
	}
	tr.SetRank(3)
	if tr.rank != 3 {
		t.Fatal("SetRank did not stick")
	}
}

func TestInPlaceShortBuffer(t *testing.T) {
	tr, _ := NewInPlace(64, Config{Scheme: Plain})
	if _, err := tr.Transform(make([]complex128, 10)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

// TestDMRVote pins the middle-layer DMR tie-break: the third run decides, so
// a soft error in either of the first two runs is voted out, and a column
// with no two runs agreeing is rejected instead of returned.
func TestDMRVote(t *testing.T) {
	clean := []complex128{1 + 2i, -3, 0.5i, 4 - 1i}
	bad := append([]complex128(nil), clean...)
	bad[2] += 7
	for _, tc := range []struct {
		name             string
		run1, run2, run3 []complex128
		ok               bool
	}{
		{"run 1 faulted", bad, clean, clean, true},
		{"run 2 faulted", clean, bad, clean, true},
		{"all three differ", bad, clean, []complex128{1 + 2i, -3, 9, 4 - 1i}, false},
	} {
		out := append([]complex128(nil), tc.run1...)
		ok := dmrVote(out, tc.run2, tc.run3)
		if ok != tc.ok {
			t.Fatalf("%s: vote ok=%v, want %v", tc.name, ok, tc.ok)
		}
		if !ok {
			continue
		}
		for i := range clean {
			if out[i] != clean[i] {
				t.Errorf("%s: element %d = %v, want the clean %v", tc.name, i, out[i], clean[i])
			}
		}
	}
}
