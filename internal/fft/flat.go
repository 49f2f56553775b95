package fft

// flatState holds the immutable tables and stage schedule for the flat
// iterative power-of-two kernel: decimation-in-time radix-4 butterflies (with
// one leading radix-2 fixup stage when log2 n is odd) swept over data in
// bit-reversed order. Compared to the recursive mixed-radix walk it does no
// per-block function calls, touches the input exactly once (the bit-reversal
// gather), and reads each stage's twiddles from one interleaved table in
// stride order — the kernel every protection scheme bottoms out in, so its
// speed multiplies through the whole scheme × geometry × transport matrix.
//
// Stage invariant: after all stages up to quarter-size m have run, the block
// of size 4m starting at a 4m-aligned base holds the 4m-point DFTs of the
// corresponding stride-(n/4m) subsequence of the input. With full *binary*
// bit reversal the four size-m sub-blocks hold the sub-DFTs of the residue
// classes in the order [0, 2, 1, 3] (the two low block bits come out
// bit-swapped), which is why the butterfly below reads its ω^{2k} operand
// from the second block and its ω^k operand from the third.
type flatState struct {
	n   int
	rev []int32 // bit-reversal permutation, rev[i] = reverse of i in log2(n) bits
	r2  bool    // leading twiddle-free radix-2 stage (log2 n odd)

	// stages are the radix-4 combine passes in ascending block size; each
	// merges four size-m blocks into one size-4m block.
	stages []flatStage
}

type flatStage struct {
	m int // quarter size: the stage combines blocks of m into 4m
	// tw holds the interleaved per-column twiddles ω_{4m}^{sign·k},
	// ω_{4m}^{sign·2k}, ω_{4m}^{sign·3k} at indices 3k, 3k+1, 3k+2.
	tw []complex128
}

// buildFlatState constructs the kernel tables for a power-of-two n. Shared
// across same-(n, sign) plans via the bounded kernel cache.
func buildFlatState(n int, sign Sign) *flatState {
	st := &flatState{n: n}
	st.rev = make([]int32, n)
	shift := 0
	for 1<<shift < n {
		shift++
	}
	for i := 1; i < n; i++ {
		st.rev[i] = st.rev[i>>1]>>1 | int32(i&1)<<(shift-1)
	}
	m := 1
	if shift&1 == 1 {
		st.r2 = true
		m = 2
	}
	p := Plan{sign: sign} // omega helper
	for ; m < n; m *= 4 {
		tw := make([]complex128, 3*m)
		for k := 0; k < m; k++ {
			tw[3*k] = p.omega(4*m, k)
			tw[3*k+1] = p.omega(4*m, 2*k)
			tw[3*k+2] = p.omega(4*m, 3*k)
		}
		st.stages = append(st.stages, flatStage{m: m, tw: tw})
	}
	return st
}

// gather copies the strided source into dst in bit-reversed order — the only
// pass that touches src, after which every stage runs in place on dst.
func (st *flatState) gather(dst, src []complex128, stride int) {
	if stride == 1 {
		for i, r := range st.rev {
			dst[i] = src[r]
		}
		return
	}
	for i, r := range st.rev {
		dst[i] = src[int(r)*stride]
	}
}

// permute applies the bit-reversal permutation in place (used by the truly
// in-place entry point, where "the input is destroyed" must actually hold).
func (st *flatState) permute(buf []complex128) {
	for i, r := range st.rev {
		if int32(i) < r {
			buf[i], buf[r] = buf[r], buf[i]
		}
	}
}

// run executes every stage in place over bit-reversed data.
func (st *flatState) run(buf []complex128, sign Sign) {
	if sign == Forward {
		st.runForward(buf)
	} else {
		st.runInverse(buf)
	}
}

// runForward is the forward-direction stage sweep. The radix-4 butterfly
// computes, from the four sub-DFT columns a (residue 0), c (residue 2,
// pre-twiddled by ω^{2k}), b (residue 1, ω^k) and d (residue 3, ω^{3k}):
//
//	t0 = a+c   t1 = a-c   t2 = b+d   t3 = b-d
//	X[k]    = t0 + t2        X[k+2m] = t0 - t2
//	X[k+m]  = t1 - i·t3      X[k+3m] = t1 + i·t3
//
// (forward ω_4 = -i; the inverse sweep flips the sign of the i·t3 rotation).
// runForward and runInverse are deliberately two copies: the rotation is the
// innermost operation, and branching on direction there costs more than the
// duplicated code.
func (st *flatState) runForward(buf []complex128) {
	n := st.n
	if st.r2 {
		for i := 0; i < n; i += 2 {
			a, b := buf[i], buf[i+1]
			buf[i], buf[i+1] = a+b, a-b
		}
	}
	for _, sg := range st.stages {
		m := sg.m
		if m == 1 {
			// First combine from singletons: every twiddle is 1.
			for g := 0; g < n; g += 4 {
				a, c, b, d := buf[g], buf[g+1], buf[g+2], buf[g+3]
				t0, t1 := a+c, a-c
				t2, t3 := b+d, b-d
				jt3 := complex(imag(t3), -real(t3)) // -i·t3
				buf[g] = t0 + t2
				buf[g+1] = t1 + jt3
				buf[g+2] = t0 - t2
				buf[g+3] = t1 - jt3
			}
			continue
		}
		tw := sg.tw
		m2, m3, size := 2*m, 3*m, 4*m
		for g := 0; g < n; g += size {
			// Column k = 0: twiddles are 1, skip the multiplies.
			a, c := buf[g], buf[g+m]
			b, d := buf[g+m2], buf[g+m3]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			jt3 := complex(imag(t3), -real(t3))
			buf[g] = t0 + t2
			buf[g+m] = t1 + jt3
			buf[g+m2] = t0 - t2
			buf[g+m3] = t1 - jt3
			for k := 1; k < m; k++ {
				w1, w2, w3 := tw[3*k], tw[3*k+1], tw[3*k+2]
				i0 := g + k
				a := buf[i0]
				c := buf[i0+m] * w2
				b := buf[i0+m2] * w1
				d := buf[i0+m3] * w3
				t0, t1 := a+c, a-c
				t2, t3 := b+d, b-d
				jt3 := complex(imag(t3), -real(t3))
				buf[i0] = t0 + t2
				buf[i0+m] = t1 + jt3
				buf[i0+m2] = t0 - t2
				buf[i0+m3] = t1 - jt3
			}
		}
	}
}

// runInverse is runForward with the opposite ω_4 rotation (+i·t3); the stage
// twiddle tables were already built with the inverse sign.
func (st *flatState) runInverse(buf []complex128) {
	n := st.n
	if st.r2 {
		for i := 0; i < n; i += 2 {
			a, b := buf[i], buf[i+1]
			buf[i], buf[i+1] = a+b, a-b
		}
	}
	for _, sg := range st.stages {
		m := sg.m
		if m == 1 {
			for g := 0; g < n; g += 4 {
				a, c, b, d := buf[g], buf[g+1], buf[g+2], buf[g+3]
				t0, t1 := a+c, a-c
				t2, t3 := b+d, b-d
				jt3 := complex(-imag(t3), real(t3)) // +i·t3
				buf[g] = t0 + t2
				buf[g+1] = t1 + jt3
				buf[g+2] = t0 - t2
				buf[g+3] = t1 - jt3
			}
			continue
		}
		tw := sg.tw
		m2, m3, size := 2*m, 3*m, 4*m
		for g := 0; g < n; g += size {
			a, c := buf[g], buf[g+m]
			b, d := buf[g+m2], buf[g+m3]
			t0, t1 := a+c, a-c
			t2, t3 := b+d, b-d
			jt3 := complex(-imag(t3), real(t3))
			buf[g] = t0 + t2
			buf[g+m] = t1 + jt3
			buf[g+m2] = t0 - t2
			buf[g+m3] = t1 - jt3
			for k := 1; k < m; k++ {
				w1, w2, w3 := tw[3*k], tw[3*k+1], tw[3*k+2]
				i0 := g + k
				a := buf[i0]
				c := buf[i0+m] * w2
				b := buf[i0+m2] * w1
				d := buf[i0+m3] * w3
				t0, t1 := a+c, a-c
				t2, t3 := b+d, b-d
				jt3 := complex(-imag(t3), real(t3))
				buf[i0] = t0 + t2
				buf[i0+m] = t1 + jt3
				buf[i0+m2] = t0 - t2
				buf[i0+m3] = t1 - jt3
			}
		}
	}
}

// gatherRows copies the rows of the row-major n×cols matrix src into dst in
// bit-reversed row order — ExecuteColumns' counterpart of gather.
func (st *flatState) gatherRows(dst, src []complex128, cols int) {
	for i, r := range st.rev {
		copy(dst[i*cols:(i+1)*cols], src[int(r)*cols:])
	}
}

// runColumns is run over every column of a row-major n×cols matrix at once:
// the same stage sweep, with each butterfly applied to whole rows so the
// column loop is innermost. Every column sees exactly the operations run
// would apply to it, so the results are bit-identical. One copy serves both
// directions: the inverse rotation +i·t3 is the exact negation of the
// forward -i·t3, and t1 + (-x) rounds identically to t1 - x, so the inverse
// butterfly is the forward one with its m and 3m output rows swapped.
func (st *flatState) runColumns(buf []complex128, cols int, sign Sign) {
	n := st.n
	row := func(i int) []complex128 { return buf[i*cols : (i+1)*cols] }
	if st.r2 {
		for i := 0; i < n; i += 2 {
			ra, rb := row(i), row(i+1)
			for c, a := range ra {
				b := rb[c]
				ra[c], rb[c] = a+b, a-b
			}
		}
	}
	for _, sg := range st.stages {
		m := sg.m
		tw := sg.tw
		for g := 0; g < n; g += 4 * m {
			for k := 0; k < m; k++ {
				i0 := g + k
				ra, rc, rb, rd := row(i0), row(i0+m), row(i0+2*m), row(i0+3*m)
				o1, o3 := rc, rd // rows receiving t1 - i·t3 and t1 + i·t3
				if sign == Inverse {
					o1, o3 = rd, rc
				}
				// Equal-length reslices let the compiler drop the inner
				// loop's bounds checks.
				rc, rb, rd, o1, o3 = rc[:len(ra)], rb[:len(ra)], rd[:len(ra)], o1[:len(ra)], o3[:len(ra)]
				if k == 0 {
					// Twiddles are 1: skip the multiplies, as run does.
					for c, a := range ra {
						cc, b, d := rc[c], rb[c], rd[c]
						t0, t1 := a+cc, a-cc
						t2, t3 := b+d, b-d
						jt3 := complex(imag(t3), -real(t3)) // -i·t3
						ra[c] = t0 + t2
						rb[c] = t0 - t2
						o1[c] = t1 + jt3
						o3[c] = t1 - jt3
					}
					continue
				}
				w1, w2, w3 := tw[3*k], tw[3*k+1], tw[3*k+2]
				for c, a := range ra {
					cc := rc[c] * w2
					b := rb[c] * w1
					d := rd[c] * w3
					t0, t1 := a+cc, a-cc
					t2, t3 := b+d, b-d
					jt3 := complex(imag(t3), -real(t3))
					ra[c] = t0 + t2
					rb[c] = t0 - t2
					o1[c] = t1 + jt3
					o3[c] = t1 - jt3
				}
			}
		}
	}
}
