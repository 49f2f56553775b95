package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"ftfft"
	"ftfft/internal/fault"
)

// The four workloads. local and faulted run the paper's flagship scheme at
// the Fig. 7 size in process; serve drives a mixed request stream through
// the unix-socket service; distributed runs batches of the same transforms
// as local over a two-rank socket world.

// theYardstick is built once per process, before any timer starts.
var theYardstick = newYardstick()

// workloads maps each workload's name to its run; README.md says why each
// exists.
var workloads = map[string]func(cfg runConfig) (*runStats, error){
	"local":       runLocal,
	"faulted":     runFaulted,
	"serve":       runServe,
	"distributed": runDistributed,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

const (
	localN      = 1 << 16
	localInputs = 4
	distItems   = 4
	distRanks   = 2

	// A run makes its set-up setupReps times, keeping the last; setup_s is
	// the median. The count is fixed: the first set-ups of a process are
	// the slowest, so a count that followed the host's speed would move the
	// median with it.
	setupReps = 20
	// warmOps untimed ops let lazy set-up finish before timing.
	warmOps = 3

	// serveOpenRate is the open-loop phase's fixed request rate, pinned at
	// about 15% of the serve workload's closed-loop capacity (about 1.7k
	// requests/s on the two-core reference box, two connections). The box
	// shares its cores and at times runs at half speed for minutes; at
	// higher rates the open loop then queued and p50 and p90 moved by up to
	// 5x from run to run.
	serveOpenRate = 250
	serveConns    = 2
	// serveOpenShare of the serve run goes to the open loop, which gives
	// the wall-clock latencies; the closed loop, which gives the gated CPU
	// figures, gets the rest.
	serveOpenShare = 0.3

	// workerGrace is how long a closed world waits for its worker rank.
	workerGrace = 10 * time.Second
)

// runConfig is what one workload run needs.
type runConfig struct {
	seed    int64
	seconds float64
	workDir string
	tr      *tracer // nil when tracing is off
}

func (c runConfig) phase(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func (c runConfig) sock(kind string, rep int) string {
	return filepath.Join(c.workDir, fmt.Sprintf("%s-%d-%d.sock", kind, c.seed, rep))
}

// runStats is what one workload run measured.
type runStats struct {
	setup  []float64       // wall seconds, one per set-up repetition
	lat    phase           // the phase the wall latencies come from
	tput   phase           // the closed loop: CPU metrics and wall throughput
	ops    int64           // public calls over all measured phases
	mem    memDelta        // runtime counters over all measured phases
	heapMB float64         // the program's live heap at the end (see measureHeap)
	heap0  uint64          // live heap before set-up
	late   []time.Duration // serve: how late the open-loop generator sent
	tally  tally
}

type memDelta struct{ mallocs, bytes, gcs uint64 }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func deltaMem(a, b runtime.MemStats) memDelta {
	return memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, uint64(b.NumGC - a.NumGC)}
}

// liveHeap is the heap still allocated after two forced collections: the
// second frees what sync.Pool kept through the first, which depends on
// when the last collection happened to run.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMem().HeapAlloc
}

// markHeap records the live heap before set-up, when it holds the
// benchmark's own inputs and references and little else.
func (st *runStats) markHeap() { st.heap0 = liveHeap() }

// measureHeap records the live heap at the end of the closed loop, less
// the part markHeap saw and less the closed loop's own samples, whose
// number follows the host's speed: what the program keeps live in plans,
// tables, caches and connections. The caller keeps its inputs and the
// program's handles reachable until after this call.
func (st *runStats) measureHeap(closed phase) {
	own := int64(cap(closed.samples)) * int64(unsafe.Sizeof(sample{}))
	st.heapMB = float64(int64(liveHeap())-int64(st.heap0)-own) / (1 << 20)
}

// timeSetup runs one repetition of the set-up and records its wall time.
func (st *runStats) timeSetup(setup func() error) error {
	t0 := time.Now()
	err := setup()
	st.setup = append(st.setup, time.Since(t0).Seconds())
	return err
}

// moreSetup reports whether the run should repeat its set-up again.
func (st *runStats) moreSetup() bool { return len(st.setup) < setupReps }

// opFunc runs the i-th operation of a closed loop and returns its sample,
// with the process CPU time of its library call (see timeCall).
type opFunc func(i int64) sample

// timeCall runs call and returns its wall time and the process's CPU time
// over it. Ops run one at a time, so the oracle check and the fault arming
// around the call are left out, while the runtime's threads and the other
// ranks' goroutines that work for the call are counted.
func timeCall(call func()) (wall, cpu time.Duration) {
	c0, t0 := cpuTime(), time.Now()
	call()
	return time.Since(t0), cpuTime() - c0
}

// closedLoop runs op from one caller, issuing the next op only when the
// previous one returned, until d has passed. Before each op it runs the
// yardstick.
func closedLoop(d time.Duration, op opFunc) phase {
	var recs []sample
	c0, start := cpuTime(), time.Now()
	deadline := start.Add(d)
	for i := int64(0); time.Now().Before(deadline); i++ {
		yard := theYardstick.run()
		s := op(i)
		s.yard = yard
		recs = append(recs, s)
	}
	return newPhase([][]sample{recs}, time.Since(start), cpuTime()-c0)
}

// measureClosed is the measured phase of the closed-loop workloads: one
// closed loop gives the CPU, latency and throughput figures.
func (st *runStats) measureClosed(cfg runConfig, op opFunc) {
	m0 := readMem()
	st.lat = closedLoop(cfg.phase(1), op)
	st.tput = st.lat
	st.mem = deltaMem(m0, readMem())
	st.ops = int64(len(st.lat.samples))
}

// rearmable is the benchmark's fault injector: a fresh deterministic
// schedule is installed before each op, so every op meets the same fault mix
// at seed-drawn indices.
type rearmable struct {
	cur atomic.Pointer[ftfft.Schedule]
}

func (r *rearmable) Visit(site ftfft.Site, rank int, data []complex128, n, stride int) bool {
	s := r.cur.Load()
	return s != nil && s.Visit(site, rank, data, n, stride)
}

// arm installs the paper's Table 1 "1m1c" mix: one input-memory overwrite
// and one computational fault on the second first-layer sub-FFT, at indices
// drawn from rng.
func (r *rearmable) arm(rng *rand.Rand) *ftfft.Schedule {
	s := ftfft.NewFaultSchedule(rng.Int63(),
		ftfft.Fault{Kind: fault.Memory, Site: ftfft.SiteInputMemory, Rank: ftfft.AnyRank, Index: -1, Mode: ftfft.SetConstant, Value: 5},
		ftfft.Fault{Kind: fault.Computational, Site: ftfft.SiteSubFFT1, Rank: ftfft.AnyRank, Occurrence: 2, Index: -1, Mode: ftfft.AddConstant, Value: 2},
	)
	r.cur.Store(s)
	return s
}

func (r *rearmable) disarm() { r.cur.Store(nil) }

// localRefs is the input set local, faulted and distributed share.
func localRefs(seed int64) ([]*reference, error) {
	return complexRefs(seed, "local", complexInputs(seed, "local", localInputs, localN), false)
}

func runLocal(cfg runConfig) (*runStats, error)   { return runSequential(cfg, false) }
func runFaulted(cfg runConfig) (*runStats, error) { return runSequential(cfg, true) }

func runSequential(cfg runConfig, faulted bool) (*runStats, error) {
	refs, err := localRefs(cfg.seed)
	if err != nil {
		return nil, err
	}
	st := &runStats{}
	st.markHeap()
	opts := []ftfft.Option{ftfft.WithProtection(ftfft.OnlineABFTMemory)}
	inj := &rearmable{}
	if faulted {
		opts = append(opts, ftfft.WithInjector(inj))
	}
	var plan ftfft.Transform
	for st.moreSetup() {
		if err := st.timeSetup(func() (err error) { plan, err = ftfft.New(localN, opts...); return err }); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	src := make([]complex128, localN)
	dst := make([]complex128, localN)
	for i := 0; i < warmOps; i++ {
		if _, err := plan.Forward(ctx, dst, refs[i%len(refs)].x); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	rng := rngFor(cfg.seed, "faults")
	st.measureClosed(cfg, func(i int64) sample {
		ref := refs[i%int64(len(refs))]
		root := cfg.tr.root("bench.op")
		in := ref.x
		var sched *ftfft.Schedule
		if faulted {
			s := root.child("bench.arm")
			copy(src, ref.x)
			sched = inj.arm(rng)
			in = src
			s.end()
		}
		s := root.child("ftfft.Transform.Forward")
		var rep ftfft.Report
		var err error
		lat, cpu := timeCall(func() { rep, err = plan.Forward(ctx, dst, in) })
		s.end()
		s = root.child("bench.oracle")
		ok := st.tally.check(rep, err, ref, dst)
		st.tally.report(rep)
		if faulted {
			st.tally.faults(sched.FiredCount(), rep)
		}
		s.end()
		root.end()
		return sample{lat: lat, cpu: cpu, ok: b2i(ok)}
	})
	st.measureHeap(st.tput)
	runtime.KeepAlive(refs)
	runtime.KeepAlive(plan)
	return st, nil
}

func b2i(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

// distRig is a two-rank socket world: the hub in this process, one worker
// rank served in process with a private executor, and the root's plan.
type distRig struct {
	hub    *ftfft.Hub
	plan   ftfft.Transform
	cancel context.CancelFunc
	done   chan error
}

func openDist(sock string, n int, opts ...ftfft.Option) (*distRig, error) {
	hub, err := ftfft.ListenHub("unix", sock, distRanks)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &distRig{hub: hub, cancel: cancel, done: make(chan error, 1)}
	go func() {
		r.done <- ftfft.ServeWorker(ctx, "unix", sock, ftfft.WithWorkers(1), ftfft.WithoutPeerMesh())
	}()
	opts = append([]ftfft.Option{ftfft.WithRanks(distRanks), ftfft.WithTransport(hub), ftfft.WithWorkers(distRanks)}, opts...)
	r.plan, err = ftfft.New(n, opts...)
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close tears the world down and waits for the worker rank to return. A
// worker returns nil once the hub is gone; the context is the fallback that
// stops one that does not notice.
func (r *distRig) close() error {
	err := r.hub.Close()
	var werr error
	select {
	case werr = <-r.done:
	case <-time.After(workerGrace):
		r.cancel()
		werr = <-r.done
	}
	r.cancel()
	if werr != nil && err == nil {
		err = fmt.Errorf("worker: %w", werr)
	}
	return err
}

func runDistributed(cfg runConfig) (*runStats, error) {
	refs, err := localRefs(cfg.seed)
	if err != nil {
		return nil, err
	}
	st := &runStats{}
	st.markHeap()
	var rig *distRig
	for st.moreSetup() {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		sock := cfg.sock("hub", len(st.setup))
		if err := st.timeSetup(func() (err error) {
			rig, err = openDist(sock, localN, ftfft.WithProtection(ftfft.OnlineABFTMemory))
			return err
		}); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	src := make([][]complex128, distItems)
	dst := make([][]complex128, distItems)
	for i := range src {
		src[i] = refs[i%len(refs)].x
		dst[i] = make([]complex128, localN)
	}
	for i := 0; i < warmOps; i++ {
		if _, err := rig.plan.ForwardBatch(ctx, dst, src); err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	st.measureClosed(cfg, func(int64) sample {
		root := cfg.tr.root("bench.op")
		s := root.child("ftfft.Transform.ForwardBatch")
		var rep ftfft.Report
		var err error
		lat, cpu := timeCall(func() { rep, err = rig.plan.ForwardBatch(ctx, dst, src) })
		s.end()
		s = root.child("bench.oracle")
		ok := 0
		for i := range dst {
			ok += b2i(st.tally.check(rep, err, refs[i%len(refs)], dst[i]))
		}
		st.tally.report(rep)
		s.end()
		root.end()
		return sample{lat: lat, cpu: cpu, ok: ok}
	})
	st.measureHeap(st.tput)
	runtime.KeepAlive(refs)
	return st, rig.close()
}
