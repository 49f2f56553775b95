package core

import (
	"math/cmplx"

	"ftfft/internal/checksum"
	"ftfft/internal/fault"
)

// offline implements Algorithm 1, in both variants and with optional memory
// protection (the Table 1 "Opt-Offline" rows):
//
//   - Naive: the input checksum vector rA is evaluated trigonometrically,
//     the output checksum uses an explicitly materialized weight vector, and
//     memory protection uses the classic r₁ = (1,…,1), r₂ = (0,1,…,n-1)
//     checksums computed in two separate passes.
//   - Optimized: rA uses the incremental closed form (§7.1.1), the output
//     checksum uses the merged ω₃-bucket evaluation, and the memory
//     checksums are the §4.1 dual-use pair (r′₁ = rA, r′₂ = j·rA) computed
//     in the same pass as the computational checksum.
//
// Any error — wherever it struck — surfaces only at the final verification,
// and recovery is a full restart; with memory protection the input is first
// re-verified and repaired so the restart starts from clean data.
func (t *Transformer) offline(dst, src []complex128, th Thresholds) (Report, error) {
	var rep Report
	naive := t.cfg.Variant == Naive
	ds, ss := t.ds, t.ss

	// Input checksum vector generation.
	var ra []complex128
	if naive {
		ra = checksum.CheckVectorTrig(t.n)
	} else {
		ra = checksum.CheckVectorInto(t.ra, t.n)
	}

	// Computational input checksum, fused with memory checksum generation
	// in the optimized variant.
	var cx complex128
	var inPair checksum.Pair
	var naiveOnes, naiveIdx complex128 // classic memory checksums (naive)
	if t.cfg.MemoryFT && !naive {
		inPair = checksum.GeneratePairStrided(ra, src, t.n, ss)
		cx = inPair.D1 // dual use (§4.1)
	} else {
		cx = checksum.DotStrided(ra, src, t.n, ss)
		if t.cfg.MemoryFT {
			// Classic checksums, deliberately in two extra passes.
			for j := 0; j < t.n; j++ {
				naiveOnes += src[j*ss]
			}
			for j := 0; j < t.n; j++ {
				naiveIdx += complex(float64(j), 0) * src[j*ss]
			}
		}
	}

	// The input now rests in memory until the computation reads it.
	fault.Visit(t.cfg.Injector, fault.SiteInputMemory, 0, src, t.n, ss)

	// Naive CCV materializes the weight vector; optimized uses DotOmega3.
	var rWeights []complex128
	if naive {
		rWeights = checksum.Weights(t.n)
	}

	for attempt := 0; attempt <= t.cfg.maxRetries(); attempt++ {
		if err := t.plain(dst, src); err != nil {
			return rep, err
		}
		fault.Visit(t.cfg.Injector, fault.SiteFullFFT, 0, dst, t.n, ds)
		fault.Visit(t.cfg.Injector, fault.SiteOutputMemory, 0, dst, t.n, ds)

		var rX complex128
		if naive {
			rX = checksum.DotStrided(rWeights, dst, t.n, ds)
		} else {
			rX = checksum.DotOmega3Strided(dst, t.n, ds)
		}
		if ccvPass(rX, cx, th.EtaOffline, t.n) {
			return rep, nil
		}
		rep.Detections++

		if t.cfg.MemoryFT {
			// Re-verify the input; repair it if the mismatch came from a
			// memory fault, then restart from clean data.
			if naive {
				var curOnes, curIdx complex128
				for j := 0; j < t.n; j++ {
					curOnes += src[j*ss]
				}
				for j := 0; j < t.n; j++ {
					curIdx += complex(float64(j), 0) * src[j*ss]
				}
				d := checksum.Pair{D1: naiveOnes - curOnes, D2: naiveIdx - curIdx}
				if cmplx.Abs(d.D1) > 0 {
					if j, ok := checksum.Locate(d, t.n); ok {
						src[j*ss] += d.D1
						rep.MemCorrections++
						cx = checksum.DotStrided(ra, src, t.n, ss)
					}
				}
			} else {
				cur := checksum.GeneratePairStrided(ra, src, t.n, ss)
				d := inPair.Sub(cur)
				if cmplx.Abs(d.D1) > th.EtaMemOut {
					if j, ok := checksum.Locate(d, t.n); ok {
						src[j*ss] += d.D1 / ra[j]
						rep.MemCorrections++
						cur = checksum.GeneratePairStrided(ra, src, t.n, ss)
						inPair = cur
						cx = cur.D1
					}
				}
			}
		}
		rep.FullRestarts++
	}
	rep.Uncorrectable = true
	return rep, ErrUncorrectable
}
