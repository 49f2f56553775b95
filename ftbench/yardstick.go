package main

import (
	"math"
	"time"
)

// The yardstick: a plain iterative radix-2 FFT of 2^16 points written here,
// in the benchmark, so no change to the program can change it. Every closed
// loop runs it just before each op and divides the op's CPU time by the
// yardstick's. The reference box is a guest on a shared host, and whatever
// else the host runs on the same core and caches slows every op by 10–20%
// for minutes at a time; the yardstick, the same kind of work on the same
// amount of data, slows with it, so the ratio holds still where the CPU time
// itself drifts.

const yardstickN = 1 << 16

type yardstick struct {
	x, buf []complex128
	w      []complex128 // w[k] = exp(-2πik/n), k < n/2
}

func newYardstick() *yardstick {
	y := &yardstick{
		x:   complexInputs(0, "yardstick", 1, yardstickN)[0],
		buf: make([]complex128, yardstickN),
		w:   make([]complex128, yardstickN/2),
	}
	for k := range y.w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / yardstickN)
		y.w[k] = complex(c, s)
	}
	return y
}

// run transforms the yardstick's input into buf and returns the process
// CPU time it took.
func (y *yardstick) run() time.Duration {
	c0 := cpuTime()
	copy(y.buf, y.x)
	radix2(y.buf, y.w)
	return cpuTime() - c0
}

// radix2 is the forward DFT of x in place, len(x) a power of two and w the
// first len(x)/2 twiddles: bit-reversal, then log₂n butterfly passes.
func radix2(x, w []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				t := w[k*step] * x[start+k+half]
				x[start+k+half] = x[start+k] - t
				x[start+k] += t
			}
		}
	}
}
