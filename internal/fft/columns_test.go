package fft

import (
	"math/rand"
	"testing"
)

// TestExecuteColumns pins ExecuteColumns to per-column ExecuteStrided: every
// column of the batched result must be bitwise equal to the strided
// single-column transform, for the flat kernel, mixed-radix plans, a
// generic-radix prime and a Bluestein plan, in both directions, and the
// steady state must not allocate.
func TestExecuteColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 4, 8, 32, 3, 6, 12, 17, 37} {
		for _, sign := range []Sign{Forward, Inverse} {
			p, err := NewPlan(n, sign)
			if err != nil {
				t.Fatal(err)
			}
			if isPow2(n) != (p.Kernel() == KernelFlat) || (n == 37) != (p.blue != nil) {
				t.Fatalf("n=%d: plan resolved to kernel %v (bluestein %v)", n, p.Kernel(), p.blue != nil)
			}
			for _, cols := range []int{1, 3, 64, 1024} {
				src := randomVec(rng, n*cols)
				keep := append([]complex128(nil), src...)
				got := make([]complex128, n*cols)
				p.ExecuteColumns(got, src, cols)
				want := make([]complex128, n)
				for c := 0; c < cols; c++ {
					p.ExecuteStrided(want, src[c:], cols)
					for j, w := range want {
						if g := got[j*cols+c]; g != w {
							t.Fatalf("n=%d sign=%d cols=%d: column %d bin %d = %v, ExecuteStrided gives %v", n, sign, cols, c, j, g, w)
						}
					}
				}
				for i := range src {
					if src[i] != keep[i] {
						t.Fatalf("n=%d sign=%d cols=%d: src modified at %d", n, sign, cols, i)
					}
				}
				if raceEnabled {
					continue // the race detector's instrumentation allocates
				}
				if allocs := testing.AllocsPerRun(5, func() { p.ExecuteColumns(got, src, cols) }); allocs != 0 {
					t.Errorf("n=%d sign=%d cols=%d: ExecuteColumns %v allocs/op, want 0", n, sign, cols, allocs)
				}
			}
		}
	}
}
