package core

import (
	"fmt"
	"math"
)

// Split factors n into m·k with m ≥ k > 1, both as close to √n as possible —
// the "highest level of decomposition" the online scheme is built on (§3.1).
// It fails for n < 4 and for prime n, where no two-layer decomposition
// exists (the offline scheme still applies there).
func Split(n int) (m, k int, err error) {
	if n < 4 {
		return 0, 0, fmt.Errorf("core: size %d too small for a two-layer decomposition", n)
	}
	root := int(math.Sqrt(float64(n)))
	for d := root; d >= 2; d-- {
		if n%d == 0 {
			return n / d, d, nil
		}
	}
	return 0, 0, fmt.Errorf("core: size %d is prime; the online scheme needs a composite size", n)
}

// twiddleTable builds the inter-layer twiddle table for n = m·k in
// column-major order: entry j·k+i holds ω_n^{i·j} for i ∈ [0,k), j ∈ [0,m),
// so the stage-2 column j reads its k twiddles contiguously. Each i keeps
// its own incremental rotation along j, resynchronized trigonometrically
// every 64 steps; the k rotations advance in lockstep, so the table is
// written front to back.
func twiddleTable(n, m, k int) []complex128 {
	tab := make([]complex128, k*m)
	w := make([]complex128, k)
	step := make([]complex128, k)
	for i := range step {
		step[i] = omegaN(n, i)
	}
	for j := 0; j < m; j++ {
		if j%64 == 0 {
			for i := range w {
				w[i] = omegaN(n, i*j)
			}
		}
		col := tab[j*k : (j+1)*k]
		for i := range col {
			col[i] = w[i]
			w[i] *= step[i]
		}
	}
	return tab
}

// omegaN returns ω_n^k = exp(-2πik/n) with symmetric argument reduction.
func omegaN(n, k int) complex128 {
	k %= n
	if 2*k > n {
		k -= n
	} else if 2*k <= -n {
		k += n
	}
	ang := -2 * math.Pi * float64(k) / float64(n)
	s, c := math.Sincos(ang)
	return complex(c, s)
}
