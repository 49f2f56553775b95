package ftfft_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ftfft"
	"ftfft/internal/dft"
	"ftfft/internal/workload"
)

var bg = context.Background()

// TestNewMatchesDeprecatedPlan: the unified sequential executor and the
// deprecated Plan shim are the same machinery — outputs must be bit-identical.
func TestNewMatchesDeprecatedPlan(t *testing.T) {
	n := 1024
	x := workload.Uniform(21, n)
	for _, prot := range allProtections {
		tr, err := ftfft.New(n, ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n || tr.Ranks() != 1 || tr.Protection() != prot {
			t.Fatalf("%v: accessors Len=%d Ranks=%d Protection=%v", prot, tr.Len(), tr.Ranks(), tr.Protection())
		}
		if r, c := tr.Shape(); r != 1 || c != n {
			t.Fatalf("%v: Shape = %d,%d", prot, r, c)
		}
		got := make([]complex128, n)
		if _, err := tr.Forward(bg, got, append([]complex128(nil), x...)); err != nil {
			t.Fatal(err)
		}
		p, err := ftfft.NewPlan(n, ftfft.Options{Protection: prot})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, n)
		if _, err := p.Forward(want, append([]complex128(nil), x...)); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: New and NewPlan outputs differ at %d: %v vs %v", prot, i, got[i], want[i])
			}
		}
	}
}

// TestNewWithRanksMatchesParallelPlan: New(n, WithRanks(p)) must be
// bit-identical to the deprecated NewParallelPlan at the equivalent
// (Protected, Optimized) configuration.
func TestNewWithRanksMatchesParallelPlan(t *testing.T) {
	n, p := 4096, 8
	x := workload.Uniform(22, n)
	for _, tc := range []struct {
		prot ftfft.Protection
		opts ftfft.ParallelOptions
	}{
		{ftfft.None, ftfft.ParallelOptions{Optimized: true}},
		{ftfft.OnlineABFTMemory, ftfft.ParallelOptions{Protected: true, Optimized: true}},
		{ftfft.OnlineABFTMemoryNaive, ftfft.ParallelOptions{Protected: true}},
	} {
		tr, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(tc.prot))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Ranks() != p || tr.Len() != n {
			t.Fatalf("accessors: Ranks=%d Len=%d", tr.Ranks(), tr.Len())
		}
		got := make([]complex128, n)
		if _, err := tr.Forward(bg, got, append([]complex128(nil), x...)); err != nil {
			t.Fatalf("%v: %v", tc.prot, err)
		}
		pp, err := ftfft.NewParallelPlan(n, p, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, n)
		if _, err := pp.Forward(want, append([]complex128(nil), x...)); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: unified and deprecated parallel outputs differ at %d", tc.prot, i)
			}
		}
	}
	if _, err := ftfft.New(4096, ftfft.WithRanks(8), ftfft.WithProtection(ftfft.OfflineABFT)); err == nil {
		t.Fatal("offline protection has no parallel formulation; New must reject it")
	}
}

// TestNewWithShapeMatchesPlan2D: WithShape must reproduce the deprecated
// Plan2D bit-for-bit, and adding WithRanks (worker-pool dispatch of the
// row/column passes) must not change a single bit.
func TestNewWithShapeMatchesPlan2D(t *testing.T) {
	rows, cols := 32, 64
	n := rows * cols
	x := workload.Uniform(23, n)
	for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFTMemory} {
		p2, err := ftfft.NewPlan2D(rows, cols, ftfft.Options{Protection: prot})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, n)
		if _, err := p2.Forward(want, append([]complex128(nil), x...)); err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{0, 1, 4} {
			opts := []ftfft.Option{ftfft.WithShape(rows, cols), ftfft.WithProtection(prot)}
			if ranks > 0 {
				opts = append(opts, ftfft.WithRanks(ranks))
			}
			tr, err := ftfft.New(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if r, c := tr.Shape(); r != rows || c != cols {
				t.Fatalf("Shape = %d,%d", r, c)
			}
			got := make([]complex128, n)
			if _, err := tr.Forward(bg, got, append([]complex128(nil), x...)); err != nil {
				t.Fatalf("%v ranks=%d: %v", prot, ranks, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v ranks=%d: 2-D outputs differ at %d", prot, ranks, i)
				}
			}
		}
	}
	if _, err := ftfft.New(100, ftfft.WithShape(8, 8)); err == nil {
		t.Fatal("size/shape mismatch accepted")
	}
	if _, err := ftfft.New(64, ftfft.WithShape(-8, -8)); err == nil {
		t.Fatal("negative shape accepted")
	}
}

// TestParallel2DInverseRoundTrip exercises the rank-pool 2-D path through
// Inverse (including under protection with injected faults elsewhere absent).
func TestParallel2DInverseRoundTrip(t *testing.T) {
	rows, cols := 64, 32
	n := rows * cols
	x := workload.Normal(24, n)
	tr, err := ftfft.New(n, ftfft.WithShape(rows, cols), ftfft.WithRanks(4),
		ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	X := make([]complex128, n)
	y := make([]complex128, n)
	if _, err := tr.Forward(bg, X, append([]complex128(nil), x...)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Inverse(bg, y, X); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(y, x); d > 1e-9*float64(n)*(1+maxAbs(x)) {
		t.Fatalf("round trip diff %g", d)
	}
}

// TestParallelInverse: the parallel inverse (conjugation identity over the
// six-step pipeline) must match the direct IDFT and round-trip with the
// parallel forward.
func TestParallelInverse(t *testing.T) {
	n, p := 4096, 8
	x := workload.Uniform(25, n)
	for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFTMemory} {
		tr, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(prot))
		if err != nil {
			t.Fatal(err)
		}
		want := dft.Inverse(x)
		got := make([]complex128, n)
		if _, err := tr.Inverse(bg, got, append([]complex128(nil), x...)); err != nil {
			t.Fatalf("%v: %v", prot, err)
		}
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n)*(1+maxAbs(want)) {
			t.Fatalf("%v: inverse diff %g", prot, d)
		}
		X := make([]complex128, n)
		y := make([]complex128, n)
		if _, err := tr.Forward(bg, X, append([]complex128(nil), x...)); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Inverse(bg, y, X); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(y, x); d > 1e-9*float64(n)*(1+maxAbs(x)) {
			t.Fatalf("%v: round trip diff %g", prot, d)
		}
	}
}

// TestParallelInverseFaultRecovery pushes injected faults through the
// parallel inverse path: detection must be reported and the output must
// still match the clean reference.
func TestParallelInverseFaultRecovery(t *testing.T) {
	n, p := 4096, 8
	x := workload.Uniform(26, n)
	clean, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	if _, err := clean.Inverse(bg, want, append([]complex128(nil), x...)); err != nil {
		t.Fatal(err)
	}
	sched := ftfft.NewFaultSchedule(27,
		ftfft.Fault{Site: ftfft.SiteMessage, Rank: 2, Occurrence: 3, Index: -1, Mode: ftfft.AddConstant, Value: 6},
		ftfft.Fault{Site: ftfft.SiteParallelFFT1, Rank: 5, Occurrence: 2, Index: -1, Mode: ftfft.AddConstant, Value: 3},
	)
	tr, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, n)
	rep, err := tr.Inverse(bg, got, append([]complex128(nil), x...))
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if !sched.AllFired() || rep.Clean() {
		t.Fatalf("fired=%v rep=%+v", sched.AllFired(), rep)
	}
	if d := maxAbsDiff(got, want); d > 1e-9*float64(n)*(1+maxAbs(want)) {
		t.Fatalf("inverse recovery diff %g (%+v)", d, rep)
	}
}

// TestForwardBatchBitIdentical: batched outputs must equal the unbatched
// ones bit-for-bit, for every executor kind.
func TestForwardBatchBitIdentical(t *testing.T) {
	const items = 6
	for _, tc := range []struct {
		name string
		opts []ftfft.Option
		n    int
	}{
		{"sequential", []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}, 512},
		{"parallel", []ftfft.Option{ftfft.WithRanks(4), ftfft.WithProtection(ftfft.OnlineABFTMemory)}, 1024},
		{"grid", []ftfft.Option{ftfft.WithShape(16, 32), ftfft.WithRanks(2), ftfft.WithProtection(ftfft.OnlineABFT)}, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ftfft.New(tc.n, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			src := make([][]complex128, items)
			dstBatch := make([][]complex128, items)
			dstSingle := make([][]complex128, items)
			for i := range src {
				src[i] = workload.Uniform(int64(30+i), tc.n)
				dstBatch[i] = make([]complex128, tc.n)
				dstSingle[i] = make([]complex128, tc.n)
			}
			if _, err := tr.ForwardBatch(bg, dstBatch, src); err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if _, err := tr.Forward(bg, dstSingle[i], src[i]); err != nil {
					t.Fatal(err)
				}
				for j := range dstSingle[i] {
					if dstBatch[i][j] != dstSingle[i][j] {
						t.Fatalf("item %d differs at %d", i, j)
					}
				}
			}
		})
	}
}

// TestUniformValidation: every executor must reject short buffers, aliased
// buffers, and mismatched batches at the API boundary.
func TestUniformValidation(t *testing.T) {
	seqT, err := ftfft.New(256)
	if err != nil {
		t.Fatal(err)
	}
	parT, err := ftfft.New(1024, ftfft.WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	gridT, err := ftfft.New(256, ftfft.WithShape(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   ftfft.Transform
	}{
		{"seq", seqT}, {"parallel", parT}, {"grid", gridT},
	} {
		n := tc.tr.Len()
		buf := make([]complex128, n)
		short := make([]complex128, n-1)
		if _, err := tc.tr.Forward(bg, short, buf); err == nil {
			t.Errorf("%s: Forward accepted short dst", tc.name)
		}
		if _, err := tc.tr.Inverse(bg, buf, short); err == nil {
			t.Errorf("%s: Inverse accepted short src", tc.name)
		}
		if _, err := tc.tr.Forward(bg, buf, buf); err == nil ||
			!strings.Contains(err.Error(), "alias") {
			t.Errorf("%s: Forward accepted aliased buffers (err=%v)", tc.name, err)
		}
		if _, err := tc.tr.Inverse(bg, buf, buf); err == nil {
			t.Errorf("%s: Inverse accepted aliased buffers", tc.name)
		}
		if _, err := tc.tr.ForwardBatch(bg, [][]complex128{buf}, nil); err == nil {
			t.Errorf("%s: batch size mismatch accepted", tc.name)
		}
		if _, err := tc.tr.ForwardBatch(bg, [][]complex128{buf}, [][]complex128{buf}); err == nil {
			t.Errorf("%s: aliased batch item accepted", tc.name)
		}
	}
	// The deprecated shims route through the same boundary.
	p, _ := ftfft.NewPlan(256, ftfft.Options{})
	buf := make([]complex128, 256)
	if _, err := p.Forward(buf, buf); err == nil {
		t.Error("Plan.Forward accepted aliased buffers")
	}
	pp, _ := ftfft.NewParallelPlan(1024, 4, ftfft.ParallelOptions{})
	big := make([]complex128, 1024)
	if _, err := pp.Forward(big, big); err == nil {
		t.Error("ParallelPlan.Forward accepted aliased buffers")
	}
}

// TestCancellation: an already-canceled context must fail fast on every
// executor, and a mid-batch cancel must stop the batch.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	for _, opts := range [][]ftfft.Option{
		{ftfft.WithProtection(ftfft.OnlineABFTMemory)},
		{ftfft.WithRanks(4)},
		{ftfft.WithShape(16, 16)},
	} {
		n := 256
		tr, err := ftfft.New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]complex128, n)
		src := workload.Uniform(40, n)
		if _, err := tr.Forward(ctx, dst, src); !errors.Is(err, context.Canceled) {
			t.Errorf("%T: want context.Canceled, got %v", tr, err)
		}
		if _, err := tr.Inverse(ctx, dst, src); !errors.Is(err, context.Canceled) {
			t.Errorf("%T inverse: want context.Canceled, got %v", tr, err)
		}
	}
}

// persistentFault corrupts every visit to one site on one rank — the fault
// model that defeats any retry budget and, before the poison-pill abort,
// deadlocked the peers of the failing rank (the ROADMAP's known hang).
type persistentFault struct {
	site ftfft.Site
	rank int
}

func (f *persistentFault) Visit(site ftfft.Site, rank int, data []complex128, n, stride int) bool {
	if site != f.site || rank != f.rank || n == 0 {
		return false
	}
	data[0] += 1e6
	return true
}

// TestParallelRankAbortReturnsWithinDeadline is the acceptance test for the
// ROADMAP open item: a parallel transform whose injector exhausts MaxRetries
// on one rank must return ErrUncorrectable promptly instead of deadlocking
// the other ranks in Recv.
func TestParallelRankAbortReturnsWithinDeadline(t *testing.T) {
	n, p := 4096, 8
	tr, err := ftfft.New(n, ftfft.WithRanks(p),
		ftfft.WithProtection(ftfft.OnlineABFTMemory),
		ftfft.WithInjector(&persistentFault{site: ftfft.SiteParallelFFT1, rank: 3}),
		ftfft.WithMaxRetries(3))
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Uniform(41, n)
	dst := make([]complex128, n)
	done := make(chan error, 1)
	go func() {
		_, err := tr.Forward(bg, dst, src)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ftfft.ErrUncorrectable) {
			t.Fatalf("want ErrUncorrectable, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel transform deadlocked after rank abort")
	}
}

// TestParallelContextCancelUnblocksRecv: cancelling the context must unwind
// ranks parked in a transpose receive. A fault that stalls one rank forever
// cannot exist without an injector loop, so instead cancel concurrently with
// a normal run and only require that the call returns promptly.
func TestParallelContextCancelUnblocksRecv(t *testing.T) {
	n, p := 16384, 4
	tr, err := ftfft.New(n, ftfft.WithRanks(p), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Uniform(42, n)
	dst := make([]complex128, n)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := tr.Forward(ctx, dst, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A deadline that expires mid-flight must surface DeadlineExceeded (or
	// complete cleanly if the transform won the race).
	ctx2, cancel2 := context.WithTimeout(bg, time.Microsecond)
	defer cancel2()
	if _, err := tr.Forward(ctx2, dst, src); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want nil or DeadlineExceeded, got %v", err)
	}
	// The plan must remain usable after cancellations.
	if _, err := tr.Forward(bg, dst, src); err != nil {
		t.Fatalf("plan poisoned by cancellation: %v", err)
	}
}

// TestInverseFaultRecovery drives scheduled faults through the sequential
// Inverse path (satellite: injection coverage for Inverse).
func TestInverseFaultRecovery(t *testing.T) {
	n := 1024
	x := workload.Uniform(43, n)
	want := dft.Inverse(x)
	sched := ftfft.NewFaultSchedule(44,
		ftfft.Fault{Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 2, Index: -1, Mode: ftfft.AddConstant, Value: 9},
		ftfft.Fault{Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Index: 77, Mode: ftfft.SetConstant, Value: -3},
	)
	tr, err := ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFTMemory), ftfft.WithInjector(sched))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, n)
	rep, err := tr.Inverse(bg, got, append([]complex128(nil), x...))
	if err != nil {
		t.Fatalf("%v (%+v)", err, rep)
	}
	if !sched.AllFired() {
		t.Fatal("faults did not fire through the inverse path")
	}
	if rep.Clean() {
		t.Fatalf("expected recovery activity, got clean report")
	}
	if d := maxAbsDiff(got, want); d > 1e-7*float64(n)*(1+maxAbs(want)) {
		t.Fatalf("inverse output wrong after recovery: %g (%+v)", d, rep)
	}
}

// TestPlanConvolveReusesPlan: the plan-level Convolve must match the
// package-level helper bit-for-bit and stay reusable call after call.
func TestPlanConvolveReusesPlan(t *testing.T) {
	n := 256
	a := workload.Uniform(45, n)
	b := workload.GaussianPulse(n, n/2, 8)
	want, _, err := ftfft.Convolve(a, b, ftfft.Options{Protection: ftfft.OnlineABFTMemory})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ftfft.NewPlan(n, ftfft.Options{Protection: ftfft.OnlineABFTMemory})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]complex128, n)
	for round := 0; round < 3; round++ {
		rep, err := p.Convolve(out, a, b)
		if err != nil || !rep.Clean() {
			t.Fatalf("round %d: err=%v rep=%+v", round, err, rep)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("round %d: plan-level convolve differs at %d", round, i)
			}
		}
	}
	if _, err := p.Convolve(out[:10], a, b); err == nil {
		t.Fatal("short convolve dst accepted")
	}
}

// TestProtectedSeqAllocs pins the steady-state allocation contract of the
// optimized sequential schemes: Forward and Inverse allocate nothing per
// call. The checksum vectors are still recomputed on every call (twice, under
// DMR), but into storage each pooled context owns.
func TestProtectedSeqAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	for _, n := range []int{1 << 12, 1 << 16} {
		src := workload.Uniform(int64(n), n)
		dst := make([]complex128, n)
		for _, prot := range []ftfft.Protection{ftfft.None, ftfft.OfflineABFT, ftfft.OnlineABFT, ftfft.OnlineABFTMemory} {
			tr, err := ftfft.New(n, ftfft.WithProtection(prot))
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []struct {
				name string
				run  func(ctx context.Context, dst, src []complex128) (ftfft.Report, error)
			}{{"Forward", tr.Forward}, {"Inverse", tr.Inverse}} {
				if _, err := dir.run(bg, dst, src); err != nil { // warm the context pool
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := dir.run(bg, dst, src); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("n=%d %v %s: %v allocs/op, want 0", n, prot, dir.name, allocs)
				}
			}
		}
	}
}
