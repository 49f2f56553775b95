package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ftfft/internal/fault"
)

// TestSchemesBitIdenticalToPlain: on clean input every protection scheme
// computes exactly the unprotected transform — the checksum work only reads
// the data, so each output must equal Plain's bit for bit, contiguous and
// strided alike.
func TestSchemesBitIdenticalToPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{16, 48, 1024, 3072, 1 << 16} {
		x := randomVec(rng, n)
		plain, err := New(n, Config{Scheme: Plain})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, n)
		if _, err := plain.Transform(want, append([]complex128(nil), x...)); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range allConfigs()[1:] {
			tr, err := New(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []int{1, 3} {
				src := embed(x, s)
				dst := make([]complex128, (n-1)*s+1)
				rep, err := tr.TransformStrided(context.Background(), dst, src, s, s)
				if err != nil || !rep.Clean() {
					t.Fatalf("n=%d %s stride %d: err=%v rep=%+v", n, cfgName(cfg), s, err, rep)
				}
				for j := range want {
					if !sameBits(dst[j*s], want[j]) {
						t.Fatalf("n=%d %s stride %d: element %d = %v, plain %v",
							n, cfgName(cfg), s, j, dst[j*s], want[j])
					}
				}
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestTable1MixReports pins what the optimized memory-protected scheme
// reports for the paper's Table 1 fault mixes at 2^16: one input memory
// fault (1m), one stage-1 computational fault (1c), and their combinations
// with a second stage-2 computational fault (1m1c, 1m2c). Each detection
// must be repaired where it struck, never by a restart.
func TestTable1MixReports(t *testing.T) {
	const n = 1 << 16
	m1 := fault.Fault{Site: fault.SiteInputMemory, Rank: -1, Index: -1, Mode: fault.SetConstant, Value: 7}
	c1 := fault.Fault{Site: fault.SiteSubFFT1, Rank: -1, Occurrence: 2, Index: -1, Mode: fault.AddConstant, Value: 3}
	c2 := fault.Fault{Site: fault.SiteSubFFT2, Rank: -1, Occurrence: 4, Index: -1, Mode: fault.AddConstant, Value: -2}
	x := randomVec(rand.New(rand.NewSource(17)), n)
	cfg := Config{Scheme: Online, Variant: Optimized, MemoryFT: true}
	clean, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	if _, err := clean.Transform(want, append([]complex128(nil), x...)); err != nil {
		t.Fatal(err)
	}
	tol := 1e-9 * maxAbs(want)
	for _, tc := range []struct {
		name   string
		faults []fault.Fault
		want   Report
	}{
		{"1m", []fault.Fault{m1}, Report{Detections: 1, MemCorrections: 1}},
		{"1c", []fault.Fault{c1}, Report{Detections: 1, CompRecomputations: 1}},
		{"1m1c", []fault.Fault{m1, c1}, Report{Detections: 2, CompRecomputations: 1, MemCorrections: 1}},
		{"1m2c", []fault.Fault{m1, c1, c2}, Report{Detections: 3, CompRecomputations: 2, MemCorrections: 1}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			c := cfg
			sched := fault.NewSchedule(seed, tc.faults...)
			c.Injector = sched
			tr, err := New(n, c)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]complex128, n)
			rep, err := tr.Transform(dst, append([]complex128(nil), x...))
			if err != nil {
				t.Fatalf("%s seed %d: %v (report %+v)", tc.name, seed, err, rep)
			}
			if !sched.AllFired() {
				t.Fatalf("%s seed %d: not every fault fired", tc.name, seed)
			}
			if rep != tc.want {
				t.Errorf("%s seed %d: report %+v, want %+v", tc.name, seed, rep, tc.want)
			}
			if d := maxAbsDiff(dst, want); d > tol {
				t.Errorf("%s seed %d: output off the clean transform by %g > %g", tc.name, seed, d, tol)
			}
			if tc.name == "1c" {
				// A recomputed sub-FFT reruns the same arithmetic.
				for j := range want {
					if !sameBits(dst[j], want[j]) {
						t.Fatalf("1c seed %d: element %d = %v, clean %v", seed, j, dst[j], want[j])
					}
				}
			}
		}
	}
}
