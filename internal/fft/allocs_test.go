package fft

import "testing"

// TestExecuteInPlaceAllocs pins the pooled-work-buffer behaviour: steady-state
// in-place execution must not allocate, for the iterative power-of-two path
// and for the non-power-of-two path that round-trips through the plan's pool.
func TestExecuteInPlaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and sync.Pool drops items under -race")
	}
	for _, n := range []int{256, 360, 1000} { // 360 = 2³·3²·5, 1000 = 2³·5³
		p := MustPlan(n, Forward)
		buf := make([]complex128, n)
		for i := range buf {
			buf[i] = complex(float64(i%9)-4, float64(i%4)-2)
		}
		p.ExecuteInPlace(buf) // warm the pool
		allocs := testing.AllocsPerRun(20, func() {
			p.ExecuteInPlace(buf)
		})
		if allocs != 0 {
			t.Errorf("n=%d: ExecuteInPlace %v allocs/op, want 0", n, allocs)
		}
	}
}

// TestExecuteAllocs pins the out-of-place paths at zero steady-state allocs
// for both kernels: the flat iterative kernel gathers straight into dst, and
// the recursive walk draws scratch from the plan's pool.
func TestExecuteAllocs(t *testing.T) {
	for _, tc := range []struct {
		n      int
		kernel Kernel
	}{
		{1024, KernelFlat},
		{1024, KernelRecursive},
		{360, KernelAuto},
	} {
		p, err := NewPlanKernel(tc.n, Forward, tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		src := make([]complex128, tc.n)
		dst := make([]complex128, tc.n)
		for i := range src {
			src[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		p.Execute(dst, src) // warm the pools
		allocs := testing.AllocsPerRun(20, func() {
			p.Execute(dst, src)
		})
		if allocs != 0 {
			t.Errorf("n=%d kernel=%v: Execute %v allocs/op, want 0", tc.n, p.Kernel(), allocs)
		}
	}
}
