package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ftfft"
)

// The serve workload: a mixed request stream over the unix-socket service.

type serveKind int

const (
	kindForward serveKind = iota
	kindInverse
	kindReal
	kindND
)

// serveClass is one plan key of the request mix with its input and
// reference.
type serveClass struct {
	name   string
	idx    int // position in the class list: the sample's class
	kind   serveKind
	n      int
	weight int // draws per round of the mix
	opts   []ftfft.Option
	ref    *reference
}

// ndWeight is the 2-D class's share of the mix, in draws against one for
// every other class. The 2-D class is the slowest by a factor of two or
// more, so it forms the latency tail; weighted 3 of 14 it puts the 90th
// percentile in the middle of that class's latencies instead of on the
// edge between it and the next class, where run-to-run queueing noise
// flipped it between the two.
const ndWeight = 3

// serveMix lists each class as often as its weight; requests draw from it
// uniformly.
func serveMix(classes []*serveClass) []*serveClass {
	var mix []*serveClass
	for _, c := range classes {
		for i := 0; i < c.weight; i++ {
			mix = append(mix, c)
		}
	}
	return mix
}

// serveClasses builds the 12-key mix: complex Forward at 2^10, 2^12 and
// 2^14 under each of None, OnlineABFT and OnlineABFTMemory, plus Inverse,
// RealForward and a 128×128 2-D Forward at 2^12 under online-memory.
func serveClasses(seed int64) ([]*serveClass, error) {
	om := ftfft.WithProtection(ftfft.OnlineABFTMemory)
	var classes []*serveClass
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		for _, p := range []ftfft.Protection{ftfft.None, ftfft.OnlineABFT, ftfft.OnlineABFTMemory} {
			classes = append(classes, &serveClass{name: fmt.Sprintf("forward-%d-%v", n, p), kind: kindForward, n: n, weight: 1,
				opts: []ftfft.Option{ftfft.WithProtection(p)}})
		}
	}
	classes = append(classes,
		&serveClass{name: "inverse-4096", kind: kindInverse, n: 1 << 12, weight: 1, opts: []ftfft.Option{om}},
		&serveClass{name: "real-4096", kind: kindReal, n: 1 << 12, weight: 1, opts: []ftfft.Option{om}},
		&serveClass{name: "nd-128x128", kind: kindND, n: 128 * 128, weight: ndWeight, opts: []ftfft.Option{om, ftfft.WithDims(128, 128)}},
	)
	for i, c := range classes {
		c.idx = i
		stream := "serve/" + c.name
		var refs []*reference
		var err error
		switch c.kind {
		case kindForward:
			refs, err = complexRefs(seed, stream, complexInputs(seed, stream, 1, c.n), false)
		case kindInverse:
			refs, err = complexRefs(seed, stream, complexInputs(seed, stream, 1, c.n), true)
		case kindReal:
			refs, err = realRefs(seed, stream, realInputs(seed, stream, 1, c.n))
		case kindND:
			refs, err = complexRefs(seed, stream, complexInputs(seed, stream, 1, c.n), false, ftfft.WithDims(128, 128))
		}
		if err != nil {
			return nil, err
		}
		c.ref = refs[0]
	}
	return classes, nil
}

// serveRig is a server with its client connections, each connection with
// its own output buffer.
type serveRig struct {
	srv     *ftfft.Server
	clients []*ftfft.Client
	dst     [][]complex128
}

// openServe starts the server, dials conns connections and warms the plan
// cache with one request per class. The warm-up outputs are returned for
// checking outside the set-up timer.
func openServe(sock string, conns int, classes []*serveClass) (*serveRig, [][]complex128, []error, error) {
	srv, err := ftfft.ListenServe("unix", sock, ftfft.ServerConfig{})
	if err != nil {
		return nil, nil, nil, err
	}
	r := &serveRig{srv: srv}
	for i := 0; i < conns; i++ {
		c, err := ftfft.Dial("unix", sock)
		if err != nil {
			r.close()
			return nil, nil, nil, err
		}
		r.clients = append(r.clients, c)
		r.dst = append(r.dst, make([]complex128, 1<<14))
	}
	outs := make([][]complex128, len(classes))
	errs := make([]error, len(classes))
	for i, c := range classes {
		out := make([]complex128, len(c.ref.want))
		_, errs[i] = r.call(context.Background(), 0, c, out)
		outs[i] = out
	}
	return r, outs, errs, nil
}

// call issues one request of class c on connection conn into out.
func (r *serveRig) call(ctx context.Context, conn int, c *serveClass, out []complex128) (ftfft.Report, error) {
	cl := r.clients[conn]
	switch c.kind {
	case kindInverse:
		return cl.Inverse(ctx, out, c.ref.x, c.opts...)
	case kindReal:
		return cl.RealForward(ctx, out, c.ref.xr, c.opts...)
	default:
		return cl.Forward(ctx, out, c.ref.x, c.opts...)
	}
}

var spanNames = map[serveKind]string{
	kindForward: "ftfft.Client.Forward",
	kindInverse: "ftfft.Client.Inverse",
	kindReal:    "ftfft.Client.RealForward",
	kindND:      "ftfft.Client.Forward(dims)",
}

// op runs one checked request. Its latency runs from since; its CPU time
// is the process's over the call, which is the request's own only when no
// other request is in flight.
func (r *serveRig) op(conn int, c *serveClass, since time.Time, root spanRef, t *tally) sample {
	out := r.dst[conn][:len(c.ref.want)]
	s := root.child(spanNames[c.kind])
	var rep ftfft.Report
	var err error
	_, cpu := timeCall(func() { rep, err = r.call(context.Background(), conn, c, out) })
	lat := time.Since(since)
	s.end()
	s = root.child("bench.oracle")
	ok := t.check(rep, err, c.ref, out)
	t.report(rep)
	s.end()
	return sample{lat: lat, cpu: cpu, ok: b2i(ok), class: c.idx}
}

func (r *serveRig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.srv.Close()
}

// openLoop sends requests at a fixed rate from one goroutine per
// connection, request j due at start + j/rate. Latency runs from the due
// time, so a stall also charges the requests queued behind it; late is how
// far behind schedule each request was sent.
func (r *serveRig) openLoop(d time.Duration, rate float64, seed int64, mix []*serveClass, tr *tracer, t *tally) (phase, []time.Duration) {
	total := int(d.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	conns := len(r.clients)
	recs := make([][]sample, conns)
	lates := make([][]time.Duration, conns)
	c0, start := cpuTime(), time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rngFor(seed, fmt.Sprintf("serve/open/%d", g))
			for j := g; j < total; j += conns {
				due := start.Add(time.Duration(j) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				lates[g] = append(lates[g], time.Since(due))
				root := tr.root("bench.request")
				recs[g] = append(recs[g], r.op(g, mix[rng.Intn(len(mix))], due, root, t))
				root.end()
			}
		}()
	}
	wg.Wait()
	var late []time.Duration
	for g := range lates {
		late = append(late, lates[g]...)
	}
	return newPhase(recs, time.Since(start), cpuTime()-c0), late
}

// closedOp is the closed-loop phase's op: one connection, drawing a seeded
// class sequence. One request is in flight at a time, so each request's
// CPU time is its own: client, server and codec, with the oracle left out.
func (r *serveRig) closedOp(seed int64, mix []*serveClass, tr *tracer, t *tally) opFunc {
	rng := rngFor(seed, "serve/closed")
	return func(int64) sample {
		root := tr.root("bench.request")
		s := r.op(0, mix[rng.Intn(len(mix))], time.Now(), root, t)
		root.end()
		return s
	}
}

// setupServe opens the server as often as moreSetup asks, keeping the last,
// and checks every warm-up output.
func setupServe(cfg runConfig, classes []*serveClass, st *runStats) (*serveRig, error) {
	var rig *serveRig
	for st.moreSetup() {
		if rig != nil {
			rig.close()
		}
		var r *serveRig
		var outs [][]complex128
		var errs []error
		sock := cfg.sock("serve", len(st.setup))
		if err := st.timeSetup(func() (err error) {
			r, outs, errs, err = openServe(sock, serveConns, classes)
			return err
		}); err != nil {
			return nil, err
		}
		for i, c := range classes {
			st.tally.check(ftfft.Report{}, errs[i], c.ref, outs[i])
		}
		rig = r
	}
	return rig, nil
}

func runServe(cfg runConfig) (*runStats, error) {
	classes, err := serveClasses(cfg.seed)
	if err != nil {
		return nil, err
	}
	st := &runStats{}
	st.markHeap()
	rig, err := setupServe(cfg, classes, st)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	m0 := readMem()
	mix := serveMix(classes)
	st.tput = closedLoop(cfg.phase(1-serveOpenShare), rig.closedOp(cfg.seed, mix, cfg.tr, &st.tally))
	for _, c := range classes {
		st.tput.weights = append(st.tput.weights, c.weight)
	}
	// The heap is measured before the open loop: two requests of one class
	// in flight at once make the plan keep a second set of buffers, and how
	// often that happens depends on timing.
	st.measureHeap(st.tput)
	st.lat, st.late = rig.openLoop(cfg.phase(serveOpenShare), serveOpenRate, cfg.seed, mix, cfg.tr, &st.tally)
	st.mem = deltaMem(m0, readMem())
	st.ops = int64(len(st.lat.samples) + len(st.tput.samples))
	runtime.KeepAlive(classes)
	return st, nil
}
