package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used so far, user plus system,
// over all its threads. The end-to-end timings are CPU time, not wall time:
// the reference box is a guest on a shared host, and its wall time grows
// whenever the host runs other tenants on its cores, while the guest kernel
// leaves that stolen time out of a thread's CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of v (the mean of the two middle values for even lengths).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// quantile is the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// quantileMs is the nearest-rank q-quantile of d, in milliseconds.
func quantileMs(d []time.Duration, q float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = ms(x)
	}
	return quantile(v, q)
}

// sample is one operation of a measured phase.
type sample struct {
	lat   time.Duration // wall time
	cpu   time.Duration // process CPU time of the library call
	yard  time.Duration // closed loops: CPU time of the yardstick run just before
	ok    int           // transforms verified
	class int           // serve: the request's class; 0 elsewhere
}

// phase is the samples of one measured phase, its wall time and its CPU
// time.
type phase struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration // process CPU time over the whole phase
	weights []int         // each class's share of the ops; nil for one class
}

// newPhase joins the per-goroutine samples of a phase.
func newPhase(recs [][]sample, elapsed, cpu time.Duration) phase {
	var all []sample
	for _, r := range recs {
		all = append(all, r...)
	}
	return phase{samples: all, elapsed: elapsed, cpu: cpu}
}

// weighted is the q-quantile of f over the ops, taken class by class and
// averaged with the classes' weights, so it does not depend on which
// classes a seed happened to draw. Ops that failed are left out; they count
// in verified_share. A class with no op in the phase (only in runs far
// shorter than a real one) is left out of the average.
func (p phase) weighted(q float64, f func(sample) float64) float64 {
	weights := p.weights
	if weights == nil {
		weights = []int{1}
	}
	per := make([][]float64, len(weights))
	for _, x := range p.samples {
		if x.ok > 0 {
			per[x.class] = append(per[x.class], f(x))
		}
	}
	var sum, wsum float64
	for c, v := range per {
		if len(v) > 0 {
			sum += float64(weights[c]) * quantile(v, q)
			wsum += float64(weights[c])
		}
	}
	return sum / wsum
}

// cpuMs is the q-quantile of the ops' CPU time per verified transform.
func (p phase) cpuMs(q float64) float64 {
	return p.weighted(q, func(x sample) float64 { return ms(x.cpu) / float64(x.ok) })
}

// cpuRatio is the q-quantile of the ops' CPU time per verified transform
// over the CPU time of the yardstick run just before each op.
func (p phase) cpuRatio(q float64) float64 {
	return p.weighted(q, func(x sample) float64 { return float64(x.cpu) / float64(x.ok) / float64(x.yard) })
}

// yardstickMs is the median CPU time of the phase's yardstick runs.
func (p phase) yardstickMs() float64 {
	var v []float64
	for _, x := range p.samples {
		v = append(v, ms(x.yard))
	}
	return quantile(v, 0.5)
}

// cpuPerTransformMs is the phase's process CPU time per verified transform,
// everything the process did in the phase but the yardstick runs included.
func (p phase) cpuPerTransformMs() float64 {
	n, cpu := 0, p.cpu
	for _, x := range p.samples {
		n += x.ok
		cpu -= x.yard
	}
	return ms(cpu) / float64(n)
}

func (p phase) latencies() []time.Duration {
	d := make([]time.Duration, len(p.samples))
	for i, x := range p.samples {
		d[i] = x.lat
	}
	return d
}

// latencyMs is the q-quantile latency over the phase.
func (p phase) latencyMs(q float64) float64 { return quantileMs(p.latencies(), q) }

// throughput is verified transforms per second of the phase's wall time.
func (p phase) throughput() float64 {
	n := 0
	for _, x := range p.samples {
		n += x.ok
	}
	return float64(n) / p.elapsed.Seconds()
}

// endToEnd derives the end-to-end metrics of one untraced run.
func endToEnd(st *runStats) *result {
	c := st.tally.counts()
	res := newResult(c)
	res.set("cpu_ratio_p50", "ratio", st.tput.cpuRatio(0.5))
	res.set("cpu_ratio_p90", "ratio", st.tput.cpuRatio(0.9))
	res.note(fmt.Sprintf("not gated: cpu_ms_per_transform_p50 %.6g ms, cpu_ms_per_transform_p90 %.6g ms, bench.yardstick_ms %.6g ms",
		st.tput.cpuMs(0.5), st.tput.cpuMs(0.9), st.tput.yardstickMs()))
	res.note(fmt.Sprintf("not gated, wall clock: throughput_tps %.6g 1/s, latency_p50_ms %.6g ms, latency_p90_ms %.6g ms",
		st.tput.throughput(), st.lat.latencyMs(0.5), st.lat.latencyMs(0.9)))
	res.set("verified_share", "ratio", float64(c.attempted-c.failed())/float64(c.attempted))
	res.set("setup_s", "s", median(st.setup))
	res.set("live_heap_mb", "MiB", st.heapMB)
	return res
}

// traced is the per-layer run: the workload untraced and then traced, for
// the tracing overhead and the workload-scoped counters, followed by the
// layer probes.
func traced(o options, cfg runConfig, stderr io.Writer) (*result, error) {
	run := workloads[o.workload]
	part := cfg
	part.seconds = 0.4 * cfg.seconds
	plain, err := run(part)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	part.tr = tr
	withSpans, err := run(part)
	if err != nil {
		return nil, err
	}
	pr, err := runProbes(cfg, tr)
	if err != nil {
		return nil, err
	}

	all := plain.tally.counts()
	all.add(withSpans.tally.counts())
	probes := pr.tally.counts()
	all.add(probes)
	res := newResult(all)
	for name, m := range pr.metrics {
		res.Metrics[name] = m
	}

	// Workload-scoped counters come from the untraced pass, so span
	// allocations do not count.
	ops := float64(plain.ops)
	res.set("go.allocs_per_op", "1/op", float64(plain.mem.mallocs)/ops)
	res.set("go.alloc_bytes_per_op", "B/op", float64(plain.mem.bytes)/ops)
	res.set("go.gc_per_kop", "1/kop", 1000*float64(plain.mem.gcs)/ops)
	pc := plain.tally.counts()
	res.set("core.detections", "1/op", float64(pc.rep.Detections)/ops)
	res.set("core.recomputations", "1/op", float64(pc.rep.CompRecomputations)/ops)
	res.set("core.mem_corrections", "1/op", float64(pc.rep.MemCorrections)/ops)
	res.set("core.uncorrectable", "1/op", float64(pc.uncorrectable)/ops)
	// Every fault injected in the run: the workload's own (faulted) and the
	// core.recovery probe's (every workload).
	res.set("core.detected_share", "ratio", float64(pc.detected+probes.detected)/float64(pc.injected+probes.injected))

	// The CPU times and the wall-clock figures of the untraced pass. They
	// move with the host's load, so they are reported here, without a bound.
	res.set("cpu_ms_per_transform_p50", "ms", plain.tput.cpuMs(0.5))
	res.set("cpu_ms_per_transform_p90", "ms", plain.tput.cpuMs(0.9))
	res.set("bench.yardstick_ms", "ms", plain.tput.yardstickMs())
	res.set("throughput_tps", "1/s", plain.tput.throughput())
	res.set("latency_p50_ms", "ms", plain.lat.latencyMs(0.5))
	res.set("latency_p90_ms", "ms", plain.lat.latencyMs(0.9))

	// The overhead is in CPU time over the whole closed loop, spans and
	// oracle included, yardstick runs left out.
	overhead := 100 * (withSpans.tput.cpuPerTransformMs()/plain.tput.cpuPerTransformMs() - 1)
	res.set("bench.trace_overhead_pct", "%", overhead)
	path, err := tr.write(o.traceDir, o.workload, o.seed, map[string]float64{
		"untraced_cpu_ms_per_transform": plain.tput.cpuPerTransformMs(),
		"traced_cpu_ms_per_transform":   withSpans.tput.cpuPerTransformMs(),
		"untraced_throughput_tps":       plain.tput.throughput(),
		"traced_throughput_tps":         withSpans.tput.throughput(),
		"untraced_latency_p50_ms":       plain.lat.latencyMs(0.5),
		"traced_latency_p50_ms":         withSpans.lat.latencyMs(0.5),
		"overhead_pct":                  overhead,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "ftbench: wrote spans and per-layer summary to %s\n", path)
	return res, nil
}
