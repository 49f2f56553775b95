package parallel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ftfft/internal/core"
	"ftfft/internal/fault"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/rank_pipeline_golden.json from the current rank body")

const goldenPath = "testdata/rank_pipeline_golden.json"

// goldenEntry is one pinned rank-pipeline run: the SHA-256 of the output
// bits, the aggregated Report and how many scheduled faults fired.
type goldenEntry struct {
	SHA256 string `json:"sha256"`
	Report string `json:"report"`
	Fired  int    `json:"fired"`
}

// goldenSchedules are the pinned fault schedules of the golden matrix, one
// fault each (explicit indices, so no draw order between ranks matters).
// dmrOcc is the SiteParallelFFT2 occurrence that lands on the first FFT2
// middle-layer visit of block 0 when q = r·k² has r > 1 (a layer-B k-point
// FFT when r = 1).
func goldenSchedules(p, dmrOcc int) map[string][]fault.Fault {
	return map[string][]fault.Fault{
		"clean":    nil,
		"fft1":     {{Site: fault.SiteParallelFFT1, Rank: 1, Occurrence: 3, Index: 1, Mode: fault.AddConstant, Value: 3}},
		"fft2":     {{Site: fault.SiteParallelFFT2, Rank: p - 1, Occurrence: 11, Index: 1, Mode: fault.AddConstant, Value: -6}},
		"fft2-mid": {{Site: fault.SiteParallelFFT2, Rank: 0, Occurrence: dmrOcc, Index: 1, Mode: fault.AddConstant, Value: 5}},
		"twiddle":  {{Site: fault.SiteTwiddle, Rank: 1, Occurrence: 2, Index: 3, Mode: fault.AddConstant, Value: 4}},
		"message":  {{Site: fault.SiteMessage, Rank: 0, Occurrence: 2, Index: 5, Mode: fault.AddConstant, Value: 7}},
	}
}

// TestRankPipelineGolden pins the rank body's arithmetic: for every geometry,
// variant and pinned fault schedule, the output bits and the Report must
// match digests recorded from an earlier tree. The transport bit-identity
// tests compare wires that share one rank body, so they cannot see a change
// in its arithmetic; this test can. Regenerate deliberately with
// `go test ./internal/parallel -run TestRankPipelineGolden -update-golden`.
//
// The digests are amd64 values: other architectures may fuse multiply-adds,
// which changes low-order bits legitimately.
func TestRankPipelineGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateGolden {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	got := map[string]goldenEntry{}
	for _, p := range []int{2, 4, 8} {
		for _, logN := range []int{12, 16} {
			n := 1 << logN
			if n%(p*p) != 0 {
				continue
			}
			x := randomVec(rand.New(rand.NewSource(int64(n+p))), n)
			probe, err := core.NewInPlace(n/p, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			k, r := probe.Shape()
			for _, protected := range []bool{false, true} {
				for _, optimized := range []bool{false, true} {
					for name, faults := range goldenSchedules(p, r*k+2) {
						key := fmt.Sprintf("p=%d/n=2^%d/protected=%v/optimized=%v/%s", p, logN, protected, optimized, name)
						sched := fault.NewSchedule(1, faults...)
						pl, err := NewPlan(n, p, Config{Protected: protected, Optimized: optimized, Injector: sched})
						if err != nil {
							t.Fatal(err)
						}
						dst := make([]complex128, n)
						rep, err := pl.Transform(dst, x)
						if err != nil {
							t.Fatalf("%s: %v (%+v)", key, err, rep)
						}
						got[key] = goldenEntry{SHA256: digestBits(dst), Report: fmt.Sprintf("%+v", rep), Fired: sched.FiredCount()}
					}
				}
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, the matrix has %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden entry", key)
			continue
		}
		if g != w {
			t.Errorf("%s:\n got  %s %s\n want %s %s", key, g.SHA256, g.Report, w.SHA256, w.Report)
		}
	}
}

// digestBits hashes the exact bit patterns of x.
func digestBits(x []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
