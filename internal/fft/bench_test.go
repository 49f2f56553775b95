package fft

import (
	"fmt"
	"testing"
)

// The BenchmarkKernel* family measures the raw engines beneath every
// protection scheme: the flat iterative radix-4/2 kernel against the
// recursive mixed-radix walk on the same sizes, and Bluestein's transform
// under the stage-cost convolution-length chooser against the legacy
// next-power-of-two pinning. bench.sh and the CI bench smoke run this family
// alongside the root-package benchmarks.

func benchKernel(b *testing.B, kernel Kernel) {
	for e := 10; e <= 16; e += 2 {
		n := 1 << e
		b.Run(fmt.Sprintf("n=2^%d", e), func(b *testing.B) {
			p, err := NewPlanKernel(n, Forward, kernel)
			if err != nil {
				b.Fatal(err)
			}
			src := make([]complex128, n)
			dst := make([]complex128, n)
			for i := range src {
				src[i] = complex(float64(i%11)-5, float64(i%7)-3)
			}
			p.Execute(dst, src)
			b.SetBytes(int64(n * 16))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Execute(dst, src)
			}
		})
	}
}

func BenchmarkKernelFlat(b *testing.B)      { benchKernel(b, KernelFlat) }
func BenchmarkKernelRecursive(b *testing.B) { benchKernel(b, KernelRecursive) }

// BenchmarkKernelInPlace isolates the in-place flat path (permute + stages,
// no gather) from the out-of-place one.
func BenchmarkKernelInPlace(b *testing.B) {
	for e := 10; e <= 16; e += 2 {
		n := 1 << e
		b.Run(fmt.Sprintf("n=2^%d", e), func(b *testing.B) {
			p := MustPlan(n, Forward)
			buf := make([]complex128, n)
			for i := range buf {
				buf[i] = complex(float64(i%11)-5, float64(i%7)-3)
			}
			p.ExecuteInPlace(buf)
			b.SetBytes(int64(n * 16))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ExecuteInPlace(buf)
			}
		})
	}
}

// BenchmarkKernelBluestein pits the convolution-length chooser against the
// legacy next-power-of-two pinning on large primes — the case the chooser
// exists for is a prime just above half a power of two, where pinning nearly
// doubles the convolution.
func BenchmarkKernelBluestein(b *testing.B) {
	for _, n := range []int{4099, 16411, 65537} {
		chosen := convLen(n)
		pow2 := 1
		for pow2 < 2*n-1 {
			pow2 <<= 1
		}
		for _, cfg := range []struct {
			tag string
			m   int
		}{{"chosen", chosen}, {"pow2", pow2}} {
			b.Run(fmt.Sprintf("n=%d/m=%s-%d", n, cfg.tag, cfg.m), func(b *testing.B) {
				bl, err := newBluestein(n, Forward, cfg.m)
				if err != nil {
					b.Fatal(err)
				}
				src := make([]complex128, n)
				dst := make([]complex128, n)
				for i := range src {
					src[i] = complex(float64(i%11)-5, float64(i%7)-3)
				}
				bl.transform(dst, src, 1)
				b.SetBytes(int64(n * 16))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bl.transform(dst, src, 1)
				}
			})
		}
	}
}

// BenchmarkKernelColumns measures ExecuteColumns against the per-column loop
// it replaces (ExecuteStrided into a staging vector, then a strided scatter)
// on the parallel scheme's shapes: 2^14 and 2^13 columns of a 2- or 8-point
// FFT1, and 128 columns of the 2-point FFT2 middle layer.
func BenchmarkKernelColumns(b *testing.B) {
	for _, sh := range []struct{ n, cols int }{{2, 1 << 14}, {8, 1 << 13}, {2, 128}} {
		p := MustPlan(sh.n, Forward)
		src := make([]complex128, sh.n*sh.cols)
		dst := make([]complex128, sh.n*sh.cols)
		for i := range src {
			src[i] = complex(float64(i%11)-5, float64(i%7)-3)
		}
		b.Run(fmt.Sprintf("n=%d/cols=%d/batched", sh.n, sh.cols), func(b *testing.B) {
			b.SetBytes(int64(len(src) * 16))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ExecuteColumns(dst, src, sh.cols)
			}
		})
		b.Run(fmt.Sprintf("n=%d/cols=%d/per-column", sh.n, sh.cols), func(b *testing.B) {
			col := make([]complex128, sh.n)
			b.SetBytes(int64(len(src) * 16))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for c := 0; c < sh.cols; c++ {
					p.ExecuteStrided(col, src[c:], sh.cols)
					for j, v := range col {
						dst[j*sh.cols+c] = v
					}
				}
			}
		})
	}
}
