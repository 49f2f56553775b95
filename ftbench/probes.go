package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ftfft"
	"ftfft/internal/checksum"
	"ftfft/internal/core"
	"ftfft/internal/exec"
	"ftfft/internal/fft"
	"ftfft/internal/mpi"
	"ftfft/internal/nd"
)

// The layer probes of the traced run. Each rep calls every layer's public
// functions once on seeded inputs, under one root span, so the layers are
// interleaved in time and drift hits them alike; each per-layer metric is
// the median over the reps. The probes are the same for every workload.

const (
	probeReps = 25
	// probeOpenShare of the run's seconds goes to the probes' open-loop
	// serve phase (serve.latency_p99_ms, bench.gen_late_p90_ms).
	probeOpenShare = 0.2
	codecN         = 1 << 14
	ndSide         = 128
)

type probeRun struct {
	tally   tally
	samples map[string][]float64
	metrics map[string]metric
}

// timed runs fn under a child span of root and returns its duration.
func timed(root spanRef, name string, fn func()) time.Duration {
	s := root.child(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.end()
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (p *probeRun) add(name string, v float64) { p.samples[name] = append(p.samples[name], v) }
func (p *probeRun) med(name string) float64    { return median(p.samples[name]) }
func (p *probeRun) set(name, unit string, v float64) {
	p.metrics[name] = metric{Value: v, Unit: unit}
}

// probeRig is everything the probes call, built before the reps.
type probeRig struct {
	ref                *reference
	batch              []*reference
	planF, planM       *fft.Plan
	planK              *fft.Plan
	m, k               int
	wN, wM             []complex128
	blk0               []complex128
	stored             checksum.Pair
	plain, online, om  *core.Transformer
	faultedCore        *core.Transformer
	inj                *rearmable
	public             ftfft.Transform
	ndPlan             *nd.Plan
	ndRef              *reference
	x14, w14           []complex128
	classes            []*serveClass
	serve4096          *serveClass
	local4096          ftfft.Transform
	srv                *serveRig
	dist               *distRig
	msgOnly, shared    ftfft.Transform
	frameBuf, bodyBuf  []byte
	out14              []complex128
	buf, inter, src    []complex128
	ndBuf, outS        []complex128
	bdst, bsrc         [][]complex128
	framesD, framesR   int64
	bytesWire, wireOps int64
}

func newProbeRig(cfg runConfig) (*probeRig, error) {
	refs, err := localRefs(cfg.seed)
	if err != nil {
		return nil, err
	}
	ndRefs, err := complexRefs(cfg.seed, "probe/nd", complexInputs(cfg.seed, "probe/nd", 1, ndSide*ndSide), false, ftfft.WithDims(ndSide, ndSide))
	if err != nil {
		return nil, err
	}
	classes, err := serveClasses(cfg.seed)
	if err != nil {
		return nil, err
	}
	n := localN
	r := &probeRig{ref: refs[0], batch: refs, ndRef: ndRefs[0], classes: classes, inj: &rearmable{}}
	om := core.Config{Scheme: core.Online, Variant: core.Optimized, MemoryFT: true}
	withInj := om
	withInj.Injector = r.inj
	errs := make([]error, 10)
	r.planF, errs[0] = fft.NewPlan(n, fft.Forward)
	r.plain, errs[1] = core.New(n, core.Config{Scheme: core.Plain, Variant: core.Optimized})
	r.online, errs[2] = core.New(n, core.Config{Scheme: core.Online, Variant: core.Optimized})
	r.om, errs[3] = core.New(n, om)
	r.faultedCore, errs[4] = core.New(n, withInj)
	r.public, errs[5] = ftfft.New(n, ftfft.WithProtection(ftfft.OnlineABFTMemory))
	r.ndPlan, errs[6] = nd.New([]int{ndSide, ndSide}, nd.Config{Core: om})
	r.local4096, errs[7] = ftfft.New(1<<12, ftfft.WithProtection(ftfft.OnlineABFTMemory))
	r.msgOnly, errs[8] = ftfft.New(n, ftfft.WithRanks(distRanks), ftfft.WithProtection(ftfft.OnlineABFTMemory),
		ftfft.WithTransport(ftfft.MessageOnlyTransport(distRanks)))
	r.shared, errs[9] = ftfft.New(n, ftfft.WithRanks(distRanks), ftfft.WithProtection(ftfft.OnlineABFTMemory))
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	r.m, r.k = r.om.Layout()
	r.planM, errs[0] = fft.NewPlan(r.m, fft.Forward)
	r.planK, errs[1] = fft.NewPlan(r.k, fft.Forward)
	if err := errors.Join(errs[:2]...); err != nil {
		return nil, err
	}
	r.wN, r.wM = checksum.Weights(n), checksum.Weights(r.m)
	r.blk0 = append([]complex128(nil), r.ref.x[:r.m]...)
	r.stored = checksum.GeneratePair(r.wM, r.blk0)
	r.x14 = complexInputs(cfg.seed, "probe/codec", 1, codecN)[0]
	r.w14 = checksum.Weights(codecN)
	for _, c := range classes {
		if c.name == fmt.Sprintf("forward-%d-%v", 1<<12, ftfft.OnlineABFTMemory) {
			r.serve4096 = c
		}
	}

	r.buf, r.inter, r.src = make([]complex128, n), make([]complex128, n), make([]complex128, n)
	r.ndBuf, r.out14, r.outS = make([]complex128, ndSide*ndSide), make([]complex128, codecN), make([]complex128, 1<<12)
	for i := 0; i < distItems; i++ {
		r.bsrc = append(r.bsrc, refs[i%len(refs)].x)
		r.bdst = append(r.bdst, make([]complex128, n))
	}
	return r, nil
}

// open starts the probes' server and socket world.
func (r *probeRig) open(cfg runConfig, t *tally) error {
	srv, outs, errs, err := openServe(cfg.sock("probe-serve", 0), serveConns, r.classes)
	if err != nil {
		return err
	}
	r.srv = srv
	for i, c := range r.classes {
		t.check(ftfft.Report{}, errs[i], c.ref, outs[i])
	}
	r.dist, err = openDist(cfg.sock("probe-hub", 0), localN, ftfft.WithProtection(ftfft.OnlineABFTMemory))
	return err
}

func (r *probeRig) close() error {
	if r.srv != nil {
		r.srv.close()
	}
	if r.dist != nil {
		return r.dist.close()
	}
	return nil
}

func runProbes(cfg runConfig, tr *tracer) (*probeRun, error) {
	p := &probeRun{samples: map[string][]float64{}, metrics: map[string]metric{}}
	r, err := newProbeRig(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.open(cfg, &p.tally); err != nil {
		r.close()
		return nil, err
	}
	rng := rngFor(cfg.seed, "probe/faults")
	for rep := 0; rep < probeReps; rep++ {
		root := tr.root("probe.rep")
		if err := r.rep(p, root, rep, rng.Int63()); err != nil {
			r.close()
			return nil, err
		}
		root.end()
	}

	// The open-loop serve phase, with the plan-cache deltas over it.
	builds0, evictions0, _ := r.srv.srv.CacheStats()
	lat, late := r.srv.openLoop(cfg.phase(probeOpenShare), serveOpenRate, cfg.seed, serveMix(r.classes), tr, &p.tally)
	builds1, evictions1, _ := r.srv.srv.CacheStats()
	ws := r.dist.hub.WireStats()
	if err := r.close(); err != nil {
		return nil, err
	}
	p.finish(r, ws)
	p.set("serve.cache_builds", "count", float64(builds1-builds0))
	p.set("serve.cache_evictions", "count", float64(evictions1-evictions0))
	p.set("serve.latency_p99_ms", "ms", lat.latencyMs(0.99))
	p.set("bench.gen_late_p90_ms", "ms", quantileMs(late, 0.9))
	p.set("exec.spawned", "count", float64(exec.Default().Spawned()))
	return p, nil
}

// rep is one round of calls into every layer.
func (r *probeRig) rep(p *probeRun, root spanRef, rep int, faultSeed int64) error {
	ctx := context.Background()
	x, ref, none := r.ref.x, r.ref, ftfft.Report{}
	var rp ftfft.Report
	var err error

	// fft: the whole plan, then the sub-FFTs of the protected layout: k
	// m-point FFTs over stride-k sub-vectors, then m k-point FFTs over the
	// columns of the k×m intermediate.
	p.add("fft.full_ms", ms(timed(root, "fft.Plan.Execute", func() { r.planF.Execute(r.buf, x) })))
	p.tally.check(none, nil, ref, r.buf)
	sub := timed(root, "fft.Plan.ExecuteStrided(sub-FFTs)", func() {
		for j := 0; j < r.k; j++ {
			r.planM.ExecuteStrided(r.inter[j*r.m:(j+1)*r.m], x[j:], r.k)
		}
		for i := 0; i < r.m; i++ {
			r.planK.ExecuteStrided(r.buf[i*r.k:(i+1)*r.k], r.inter[i:], r.m)
		}
	})
	p.add("fft.sub_ms", ms(sub))

	// checksum: the pair over n, and one repair of a corrupted m-block.
	p.add("checksum.pair_us", us(timed(root, "checksum.GeneratePair", func() { checksum.GeneratePair(r.wN, x) })))
	blk := r.src[:r.m]
	copy(blk, r.blk0)
	bad := int(faultSeed % int64(r.m))
	blk[bad] += 3
	var idx int
	var corrected, ok bool
	p.add("checksum.correct_us", us(timed(root, "checksum.CorrectSingle", func() {
		idx, corrected, ok = checksum.CorrectSingle(r.wM, blk, r.stored, 1e-8)
	})))
	if idx != bad || !corrected || !ok || abs(blk[bad]-r.blk0[bad]) > 1e-9 {
		p.tally.fail()
	} else {
		p.tally.pass()
	}

	// core: each scheme's Transformer. Online-memory alternates with the
	// public path over the same scheme, each call following the other's;
	// their difference is ftfft's dispatch. A difference is taken within a
	// rep, between adjacent calls, because this box's speed drifts by tens
	// of percent over hundreds of milliseconds.
	for _, s := range []struct {
		metric, span string
		t            *core.Transformer
	}{
		{"core.plain_ms", "core.Transformer.Transform(plain)", r.plain},
		{"core.online_ms", "core.Transformer.Transform(online)", r.online},
	} {
		p.add(s.metric, ms(timed(root, s.span, func() { rp, err = s.t.Transform(r.buf, x) })))
		p.tally.check(rp, err, ref, r.buf)
	}
	var omSum, pubSum time.Duration
	for i := 0; i < 2; i++ {
		d := timed(root, "core.Transformer.Transform(online-memory)", func() { rp, err = r.om.Transform(r.buf, x) })
		p.tally.check(rp, err, ref, r.buf)
		p.add("core.online_memory_ms", ms(d))
		omSum += d
		pubSum += timed(root, "ftfft.Transform.Forward", func() { rp, err = r.public.Forward(ctx, r.buf, x) })
		p.tally.check(rp, err, ref, r.buf)
	}
	p.add("ftfft.dispatch_us", us(pubSum-omSum)/2)
	p.add("core.protect_self_ms", ms(omSum)/2-ms(sub))

	// A faulted op against a clean one on the same plan and input, after an
	// untimed warm-up op, in clean/faulted/faulted/clean order.
	copy(r.src, x)
	rp, err = r.faultedCore.Transform(r.buf, r.src)
	p.tally.check(rp, err, ref, r.buf)
	var clean, faulted time.Duration
	for i, armed := range []bool{false, true, true, false} {
		copy(r.src, x)
		name := "core.Transformer.Transform(clean)"
		var sched *ftfft.Schedule
		if armed {
			name = "core.Transformer.Transform(1m1c)"
			sched = r.inj.arm(rngFor(faultSeed+int64(i), "probe/1m1c"))
		}
		d := timed(root, name, func() { rp, err = r.faultedCore.Transform(r.buf, r.src) })
		r.inj.disarm()
		p.tally.check(rp, err, ref, r.buf)
		if armed {
			p.tally.faults(sched.FiredCount(), rp)
			faulted += d
		} else {
			clean += d
		}
	}
	p.add("core.recovery_ms", ms(faulted-clean)/2)

	// ftfft: a plan build.
	var built ftfft.Transform
	p.add("ftfft.plan_build_ms", ms(timed(root, "ftfft.New", func() {
		built, err = ftfft.New(localN, ftfft.WithProtection(ftfft.OnlineABFTMemory))
	})))
	if err != nil || built == nil {
		return fmt.Errorf("plan build: %v", err)
	}

	// nd: the 2-D row-column plan.
	p.add("nd.forward_ms", ms(timed(root, "nd.Plan.Forward", func() { rp, err = r.ndPlan.Forward(ctx, r.ndBuf, r.ndRef.x) })))
	p.tally.check(rp, err, r.ndRef, r.ndBuf)

	// mpi serve codec: the fused *Pair calls on the 2^14 class. A codec
	// round trip must return the payload unchanged.
	if err := r.codec(p, root, rep); err != nil {
		return err
	}

	// serve: one lonely round trip against the same local transform.
	c := r.serve4096
	out := r.outS[:len(c.ref.want)]
	rt := timed(root, "ftfft.Client.Forward", func() { rp, err = r.srv.call(ctx, 0, c, out) })
	p.tally.check(rp, err, c.ref, out)
	local := timed(root, "ftfft.Transform.Forward(4096)", func() { rp, err = r.local4096.Forward(ctx, out, c.ref.x) })
	p.tally.check(rp, err, c.ref, out)
	p.add("serve.overhead_us", us(rt-local))

	// parallel and the mpi transport: single and batched ops over the
	// socket world, the same op over the message-only wire, and the batch
	// on the default shared path.
	w0 := r.dist.hub.WireStats()
	single := timed(root, "ftfft.Transform.Forward(socket)", func() { rp, err = r.dist.plan.Forward(ctx, r.buf, x) })
	p.add("parallel.single_ms", ms(single))
	p.tally.check(rp, err, ref, r.buf)
	d := timed(root, "ftfft.Transform.ForwardBatch(socket)", func() { rp, err = r.dist.plan.ForwardBatch(ctx, r.bdst, r.bsrc) })
	p.add("parallel.batch_item_ms", ms(d)/distItems)
	r.checkBatch(p, rp, err)
	w1 := r.dist.hub.WireStats()
	r.framesD += w1.FramesDirect - w0.FramesDirect
	r.framesR += w1.FramesRelayed - w0.FramesRelayed
	r.bytesWire += w1.BytesDirect + w1.BytesRelayed - w0.BytesDirect - w0.BytesRelayed
	r.wireOps += 1 + distItems
	msgOnly := timed(root, "ftfft.Transform.Forward(message-only)", func() { rp, err = r.msgOnly.Forward(ctx, r.buf, x) })
	p.add("mpi.wire_ms", ms(single-msgOnly))
	p.tally.check(rp, err, ref, r.buf)
	d = timed(root, "ftfft.Transform.ForwardBatch(shared)", func() { rp, err = r.shared.ForwardBatch(ctx, r.bdst, r.bsrc) })
	p.add("parallel.shared_ms", ms(d)/distItems)
	r.checkBatch(p, rp, err)
	return nil
}

func (r *probeRig) checkBatch(p *probeRun, rp ftfft.Report, err error) {
	for i := range r.bdst {
		p.tally.check(rp, err, r.batch[i%len(r.batch)], r.bdst[i])
	}
}

func (r *probeRig) codec(p *probeRun, root spanRef, rep int) error {
	weights := func(int) []complex128 { return r.w14 }
	req := mpi.ServeRequest{ID: rep + 1, Op: mpi.OpForward, Protection: byte(ftfft.OnlineABFTMemory), N: codecN, Data: r.x14}
	var frame []byte
	p.add("mpi.req_encode_us", us(timed(root, "mpi.AppendServeRequestPair", func() {
		frame, _ = mpi.AppendServeRequestPair(r.frameBuf[:0], &req, r.w14)
	})))
	r.frameBuf = frame
	f, body, err := mpi.ReadServeFrame(bytes.NewReader(frame), r.bodyBuf, 1<<20)
	if err != nil {
		return fmt.Errorf("request frame: %w", err)
	}
	r.bodyBuf = body
	var dec *mpi.ServeRequest
	var curOK bool
	p.add("mpi.req_decode_us", us(timed(root, "mpi.DecodeServeRequestPair", func() {
		dec, _, curOK, err = mpi.DecodeServeRequestPair(f, body, weights)
	})))
	if err != nil {
		return fmt.Errorf("request decode: %w", err)
	}
	if !curOK || !sameBits(dec.Data, r.x14) {
		p.tally.fail()
	} else {
		p.tally.pass()
	}
	dec.Release()

	resp := mpi.ServeResponse{ID: rep + 1, Data: r.x14}
	p.add("mpi.resp_encode_us", us(timed(root, "mpi.AppendServeResponsePair", func() {
		frame, _ = mpi.AppendServeResponsePair(r.frameBuf[:0], &resp, r.w14)
	})))
	r.frameBuf = frame
	f, body, err = mpi.ReadServeFrame(bytes.NewReader(frame), r.bodyBuf, 1<<20)
	if err != nil {
		return fmt.Errorf("response frame: %w", err)
	}
	r.bodyBuf = body
	p.add("mpi.resp_decode_us", us(timed(root, "mpi.DecodeServeResponseIntoPair", func() {
		_, _, curOK, err = mpi.DecodeServeResponseIntoPair(f, body, r.out14, nil, weights)
	})))
	if err != nil {
		return fmt.Errorf("response decode: %w", err)
	}
	if !curOK || !sameBits(r.out14, r.x14) {
		p.tally.fail()
	} else {
		p.tally.pass()
	}
	return nil
}

// sameBits compares a codec round trip, which must not change one bit.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) || math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// finish turns the samples into the per-layer metrics: each sampled
// metric's median over the reps, and the ratios and counts derived from them.
func (p *probeRun) finish(r *probeRig, ws ftfft.WireStats) {
	for _, m := range []struct{ name, unit string }{
		{"fft.full_ms", "ms"}, {"fft.sub_ms", "ms"},
		{"checksum.pair_us", "us"}, {"checksum.correct_us", "us"},
		{"core.plain_ms", "ms"}, {"core.online_ms", "ms"}, {"core.online_memory_ms", "ms"},
		{"core.protect_self_ms", "ms"}, {"core.recovery_ms", "ms"},
		{"ftfft.dispatch_us", "us"}, {"ftfft.plan_build_ms", "ms"},
		{"nd.forward_ms", "ms"},
		{"mpi.req_encode_us", "us"}, {"mpi.req_decode_us", "us"}, {"mpi.resp_encode_us", "us"}, {"mpi.resp_decode_us", "us"},
		{"mpi.wire_ms", "ms"},
		{"parallel.shared_ms", "ms"}, {"parallel.single_ms", "ms"}, {"parallel.batch_item_ms", "ms"},
		{"serve.overhead_us", "us"},
	} {
		p.set(m.name, m.unit, p.med(m.name))
	}
	n := float64(localN)
	p.set("fft.gflops_computed", "GFLOP/s", 5*n*math.Log2(n)/(p.med("fft.full_ms")*1e-3)/1e9)
	plain := p.med("core.plain_ms")
	p.set("core.overhead_online", "ratio", p.med("core.online_ms")/plain)
	p.set("core.overhead_online_memory", "ratio", p.med("core.online_memory_ms")/plain)

	frames := float64(r.framesD + r.framesR)
	p.set("mpi.frames_per_op", "1/op", frames/float64(r.wireOps))
	p.set("mpi.bytes_per_op", "B/op", float64(r.bytesWire)/float64(r.wireOps))
	relayed := 0.0
	if frames > 0 {
		relayed = float64(r.framesR) / frames
	}
	p.set("mpi.relayed_share", "ratio", relayed)
	p.set("mpi.epochs_in_flight_max", "count", float64(ws.MaxEpochsInFlight))
}
