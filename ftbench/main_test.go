package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ftfft"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the tests
// hold the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type printed struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runShort runs the program once and parses the last line of its output.
func runShort(t *testing.T, workload, trace string) printed {
	t.Helper()
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace,
		"--work-dir", dir, "--trace-dir", dir}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", workload, trace, p.Correct, p.Attempted, p.Failed, out.String())
	}
	if trace == "1" {
		if m, _ := filepath.Glob(filepath.Join(dir, workload+"-5.json")); len(m) != 1 {
			t.Fatalf("traced run wrote no span file")
		}
	}
	return p
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	var gotNames []string
	for name := range got {
		gotNames = append(gotNames, name)
	}
	sort.Strings(names)
	sort.Strings(gotNames)
	if !reflect.DeepEqual(names, gotNames) {
		t.Errorf("metrics %v, BENCHMARK.json names %v", gotNames, names)
	}
}

// TestShortRunEmitsEveryMetric runs each workload briefly, untraced and
// traced, and checks it prints exactly the metrics BENCHMARK.json names.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			checkMetrics(t, runShort(t, w.Name, "0").Metrics, spec.EndToEnd)
			checkMetrics(t, runShort(t, w.Name, "1").Metrics, spec.PerLayer)
		})
	}
}

// TestOracleCountsFailures feeds the oracle a correct spectrum, a spectrum
// with one bin perturbed by a fault-sized amount, one off by just over the
// tolerance, an error and an uncorrectable report, and checks each lands in
// its own count.
func TestOracleCountsFailures(t *testing.T) {
	refs, err := localRefs(1)
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[0]
	var tl tally
	got := append([]complex128(nil), ref.want...)
	if !tl.check(ftfft.Report{}, nil, ref, got) {
		t.Fatal("the reference itself failed the oracle")
	}
	got[1234] += 1
	if tl.check(ftfft.Report{}, nil, ref, got) {
		t.Fatal("a spectrum with one bin off by 1 passed the oracle")
	}
	copy(got, ref.want)
	for i := range got {
		got[i] *= complex(1+2*ref.tol, 0)
	}
	if tl.check(ftfft.Report{}, nil, ref, got) {
		t.Fatal("a spectrum off by twice the tolerance passed the oracle")
	}
	if tl.check(ftfft.Report{}, errors.New("boom"), ref, ref.want) {
		t.Fatal("an error return passed the oracle")
	}
	if tl.check(ftfft.Report{Uncorrectable: true}, nil, ref, ref.want) {
		t.Fatal("an uncorrectable report passed the oracle")
	}
	c := tl.counts()
	if c.attempted != 5 || c.outOfTol != 2 || c.errs != 1 || c.uncorrectable != 1 || c.failed() != 4 {
		t.Fatalf("counts %+v", c)
	}
}

// TestReferenceValidation checks that a reference that disagrees with the
// direct DFT sum is rejected at set-up.
func TestReferenceValidation(t *testing.T) {
	x := complexInputs(3, "validate", 1, 256)[0]
	refs, err := complexRefs(3, "validate", [][]complex128{x}, false)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]complex128(nil), refs[0].want...)
	bad[0] += 1
	r := newReference(x, nil, bad, len(x))
	if err := r.validate(rngFor(3, "bins"), func(k int) complex128 { return directBin(x, k, false) }); err == nil {
		t.Fatal("a wrong DC bin passed validation")
	}
}

// TestInputsSeeded checks that a seed regenerates identical inputs and
// another seed does not.
func TestInputsSeeded(t *testing.T) {
	a := complexInputs(7, "local", 2, 64)
	b := complexInputs(7, "local", 2, 64)
	c := complexInputs(8, "local", 2, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different complex inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same complex inputs")
	}
	if !reflect.DeepEqual(realInputs(7, "r", 1, 64), realInputs(7, "r", 1, 64)) ||
		reflect.DeepEqual(realInputs(7, "r", 1, 64), realInputs(8, "r", 1, 64)) {
		t.Fatal("real inputs do not follow the seed")
	}
	for _, v := range a[0] {
		if real(v) < -1 || real(v) >= 1 || imag(v) < -1 || imag(v) >= 1 {
			t.Fatalf("sample %v outside U(-1,1)", v)
		}
	}
}

// TestSelfTime checks self time is a span's duration less the union of its
// children's intervals.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Op: 1, Parent: 1, Name: "a", Start: 2, End: 4},
		{ID: 3, Op: 1, Parent: 1, Name: "b", Start: 3, End: 6},
		{ID: 4, Op: 1, Parent: 1, Name: "c", Start: 8, End: 12},
	}
	for _, s := range summarize(spans) {
		if s.Name == "root" && s.TotalSelfMs != 4e-6 {
			t.Fatalf("root self time %v ms, want 4 ns", s.TotalSelfMs)
		}
	}
}

// TestCPUQuantiles checks the closed loop's CPU figures: an op's CPU time
// covers its library call and not the work around it, the ratio divides it
// by the yardstick run before it, failed ops are left out, and the quantile
// is taken class by class and averaged with the classes' weights.
func TestCPUQuantiles(t *testing.T) {
	spin := func(d time.Duration) {
		for c0 := cpuTime(); cpuTime()-c0 < d; {
		}
	}
	p := closedLoop(300*time.Millisecond, func(int64) sample {
		_, cpu := timeCall(func() { spin(2 * time.Millisecond) })
		spin(time.Millisecond) // outside the call, like the oracle
		return sample{cpu: cpu, ok: 1}
	})
	if got := p.cpuMs(0.5); got < 1.9 || got > 2.6 {
		t.Errorf("median CPU time per op %.3g ms, want about 2", got)
	}
	if got, want := p.cpuRatio(0.5), 2/p.yardstickMs(); got < 0.8*want || got > 1.3*want {
		t.Errorf("median CPU ratio %.3g, want about %.3g", got, want)
	}
	p = phase{weights: []int{1, 3}, samples: []sample{
		{cpu: 4 * time.Millisecond, yard: time.Millisecond, ok: 2, class: 0},
		{cpu: 6 * time.Millisecond, yard: 2 * time.Millisecond, ok: 1, class: 1},
		{cpu: 9 * time.Millisecond, yard: time.Millisecond, ok: 0, class: 1},
	}}
	if got, want := p.cpuMs(0.5), (2+3*6)/4.0; got != want {
		t.Errorf("weighted CPU time %g ms, want %g", got, want)
	}
	if got, want := p.cpuRatio(0.5), (2+3*3)/4.0; got != want {
		t.Errorf("weighted CPU ratio %g, want %g", got, want)
	}
}

// TestYardstick checks the yardstick computes the DFT.
func TestYardstick(t *testing.T) {
	y := newYardstick()
	y.run()
	for _, k := range []int{0, 1, 777, yardstickN / 2, yardstickN - 1} {
		want := directBin(y.x, k, false)
		if d := y.buf[k] - want; abs(d) > 1e-9*abs(want)+1e-9 {
			t.Errorf("bin %d: %v, direct sum %v", k, y.buf[k], want)
		}
	}
}
