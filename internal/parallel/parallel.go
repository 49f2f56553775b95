// Package parallel implements the paper's §5–§6: the six-step 1-D parallel
// in-place FFT and its online ABFT protection, on top of the message-passing
// runtime (internal/mpi).
//
// The algorithm layer is transport-pure: a rank body touches only its own
// preallocated workspace and its World endpoints. Input reaches rank j
// through an explicit root-rank scatter and its output returns through a
// gather (both checksum-protected), so the same rank body runs unchanged
// whether the wire is the in-process channel matrix or sockets between OS
// processes (Plan.Serve drives remote ranks). The one concession to speed is
// capability-gated, not assumed: a transport granting mpi.SharedMemory (the
// in-process default) lets ranks copy their slices of the caller's arrays
// directly, skipping the scatter/gather messages bit-identically.
//
// Data layout, for N = p·q (q = N/p local points, b = q/p block size):
//
//	start   rank j owns x[j·q : (j+1)·q]
//	tran1   rank j sends its block i to rank i  →  rank i holds
//	        local[n2·b + t] = x[n2·q + i·b + t]           (n1 = i·b+t, n2)
//	FFT1    b p-point FFTs over n2 (stride b): the columns of the p×b
//	        matrix, batched into the spare buffer (same layout, in place
//	        in effect; the input stays as the Fig. 4 backup)
//	tran2   rank i sends block j2 to rank j2    →  rank j2 holds
//	        local[n1] = Y_{n1}(j2) for all n1             (contiguous)
//	TM      local[n1] ·= ω_N^{n1·j2}                      (DMR)
//	FFT2    one q-point in-place FFT (core.InPlaceTransformer: two layers,
//	        or three with a DMR middle layer when q = r·k², Fig. 5/6)
//	tran3   rank j2 sends block b′ to rank b′   →  local adjust
//	        out[t·p + j2] = block_{j2}[t]                 (strided scatter)
//
// Every byte of the pipeline moves once per stage. Tran1 sends straight
// from the rank's slice of the caller's src wherever that slice is in this
// process (the root, and every rank on the shared path) — sends only read
// it. Tran1 and tran2 post each receive directly into its destination slot
// local[s·b:(s+1)·b], where the block is verified and repaired in place;
// only tran3 lands in a staging buffer, for its strided scatter.
//
// Protection (Fig. 6): every transposed block travels with its two weighted
// checksums and is verified (and single-element-repaired) on receipt; FFT1
// sub-FFTs carry dual-use input checksums generated in one contiguous sweep
// and are verified column by column after one batched transform; the twiddle
// stage is DMR; FFT2 uses the in-place protected transformer, whose DMR
// middle layer is batched the same way.
// The optimized variant pipelines checksum generation and verification with
// communication (Algorithm 3) and fuses the MCV+TM+CMCG passes.
//
// Plans follow the plan-once/execute-many contract: NewPlan precomputes the
// FFT sub-plans, twiddle tables, checksum weight vectors, the message-passing
// world and every per-rank buffer; Transform itself submits one co-scheduled
// rank group to the bounded executor (internal/exec) and allocates nothing
// else. Plans are safe for concurrent use — concurrent Transforms draw
// separate execution contexts from an internal pool and queue for executor
// admission instead of multiplying goroutines.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"ftfft/internal/checksum"
	"ftfft/internal/core"
	"ftfft/internal/exec"
	"ftfft/internal/fault"
	"ftfft/internal/fft"
	"ftfft/internal/mpi"
	"ftfft/internal/roundoff"
)

// Config parameterizes a parallel plan.
type Config struct {
	// Protected enables the online ABFT scheme (FT-FFTW); false is the
	// plain parallel FFT (FFTW).
	Protected bool
	// Optimized enables the §6 optimizations: communication-computation
	// overlap in the transposes and fused verification passes. It applies
	// to both protected and unprotected runs (opt-FFTW / opt-FT-FFTW).
	Optimized bool
	// Injector corrupts data at fault sites (including messages in
	// transit). Safe for concurrent use across ranks.
	Injector fault.Injector
	// EtaScale scales all detection thresholds; 0 means 1.
	EtaScale float64
	// MaxRetries caps per-unit recomputations; 0 means 3.
	MaxRetries int
	// Executor is the bounded pool the rank fan-out is dispatched on; nil
	// means the process-wide exec.Default().
	Executor *exec.Pool
	// Transport selects the wire the rank world communicates over. nil
	// builds a fresh in-process channel wire per execution context (the
	// zero-copy shared-memory fast path). A non-nil transport is a physical
	// resource — the plan builds exactly one world over it — but up to
	// epochRing transforms pipeline through it concurrently, each tagged
	// with a distinct epoch so their messages never interleave; socket
	// transports additionally place only a subset of ranks in this process
	// (the rest run in worker processes driving Plan.Serve).
	Transport mpi.Transport
}

// Plan executes protected parallel forward FFTs of a fixed size on a fixed
// number of ranks. All derived state — FFT sub-plans, twiddle tables,
// checksum weight vectors, the communicator and per-rank workspaces — is
// built once here and reused by every Transform.
type Plan struct {
	n, p, q, b int
	cfg        Config
	ex         *exec.Pool // rank fan-out executor (never nil)
	gang       int        // local rank count = executor gang size per Transform

	fftP     *fft.Plan    // p-point FFT1 sub-plan (nil when p == 1)
	weightsB []complex128 // checksum.Weights(b): transpose block weights
	weightsQ []complex128 // checksum.Weights(q): scatter/gather slice weights (message mode)
	weightsR []complex128 // checksum.Weights(reportWords): report message weights (message mode)
	checkP   []complex128 // checksum.CheckVector(p): FFT1 input weights
	twiddle  []complex128 // [rank·q + n1] = ω_N^{n1·rank}, all p ranks

	mu   sync.Mutex
	free []*execCtx // idle execution contexts (see workspace.go)

	// ring holds the epoch-ring contexts of a plan built over an explicit
	// Transport (nil otherwise): epochRing slots sharing the plan's single
	// world, each drawing a fresh epoch per transform so up to epochRing
	// transforms pipeline over one wire. See getCtx.
	ring     chan *execCtx
	epochSeq atomic.Uint32 // next epoch a transport-backed Begin assigns
}

// NewPlan validates the geometry — p must divide n, p must divide q = n/p,
// and q must admit an in-place decomposition (k·r·k) — then precomputes all
// derived state: sub-plans, twiddle tables, checksum vectors, the
// message-passing world and per-rank workspaces.
func NewPlan(n, p int, cfg Config) (*Plan, error) {
	if p < 1 {
		return nil, fmt.Errorf("parallel: need at least one rank, got %d", p)
	}
	if n%p != 0 {
		return nil, fmt.Errorf("parallel: size %d not divisible by %d ranks", n, p)
	}
	q := n / p
	if q%p != 0 {
		return nil, fmt.Errorf("parallel: local size %d not divisible by %d (need p² | n)", q, p)
	}
	pl := &Plan{n: n, p: p, q: q, b: q / p, cfg: cfg, ex: cfg.Executor, gang: p}
	if pl.ex == nil {
		pl.ex = exec.Default()
	}
	if cfg.Transport != nil {
		if p < 2 {
			return nil, fmt.Errorf("parallel: an explicit transport needs at least 2 ranks, got %d", p)
		}
		// 0 means the wire cannot report its size; anything else must match.
		if ws, ok := cfg.Transport.(interface{ WorldSize() int }); ok && ws.WorldSize() != 0 && ws.WorldSize() != p {
			return nil, fmt.Errorf("parallel: plan has %d ranks but the transport carries %d", p, ws.WorldSize())
		}
		if rp, ok := cfg.Transport.(mpi.RankPlacement); ok {
			pl.gang = len(rp.LocalRanks())
		}
	}
	if p > 1 {
		var err error
		if pl.fftP, err = fft.NewPlan(p, fft.Forward); err != nil {
			return nil, err
		}
		pl.weightsB = checksum.Weights(pl.b)
		pl.checkP = checksum.CheckVector(p)
		pl.twiddle = twiddleTable(n, p, q)
		if cfg.Transport != nil && cfg.Protected {
			// Message-mode scatter/gather slices and report frames travel
			// with their own checksum pairs, like every other protected
			// block — a transit fault on any message is detectable.
			pl.weightsQ = checksum.Weights(q)
			pl.weightsR = checksum.Weights(reportWords)
		}
	}
	if cfg.Transport != nil {
		// One world per transport wire, epochRing contexts over it: the wire
		// handshake runs here, so plan construction blocks until the remote
		// workers have dialed in; each ring slot then carries its own per-rank
		// workspaces and endpoints, and concurrent transforms pipeline through
		// distinct epochs instead of serializing on one context.
		world, err := pl.newWorld()
		if err != nil {
			return nil, err
		}
		pl.ring = make(chan *execCtx, epochRing)
		for i := 0; i < epochRing; i++ {
			ec, err := pl.newCtxOn(world)
			if err != nil {
				return nil, err
			}
			pl.ring <- ec
		}
		return pl, nil
	}
	// Build the first execution context eagerly: it validates the FFT2
	// decomposition of q and pre-warms the pool, so the first Transform is
	// already on the steady-state path.
	ec, err := pl.newCtx()
	if err != nil {
		return nil, err
	}
	pl.free = append(pl.free, ec)
	return pl, nil
}

// twiddleTable precomputes ω_N^{n1·rank} for every rank: row r (length q)
// holds the twiddle stage's multipliers for rank r. Rows are generated by
// incremental rotation, re-synchronized trigonometrically every 8 elements:
// the ≤7-multiply drift (~1.5e-15) stays at the FFT pipeline's own
// round-off level while the one-time build pays an eighth of the Sincos
// calls of exact evaluation.
func twiddleTable(n, p, q int) []complex128 {
	tab := make([]complex128, p*q)
	for rank := 0; rank < p; rank++ {
		row := tab[rank*q : (rank+1)*q]
		step := omegaN(n, rank)
		var w complex128
		for n1 := 0; n1 < q; n1++ {
			if n1%8 == 0 {
				w = omegaN(n, n1*rank)
			}
			row[n1] = w
			w *= step
		}
	}
	return tab
}

// Workers returns the worker budget of the executor the plan dispatches on.
func (pl *Plan) Workers() int { return pl.ex.Workers() }

// MaxInflight reports how many transforms can be in flight on the plan at
// once: the epoch-ring depth for a transport-backed plan (its ring slots
// pipeline over the one wire, each on its own epoch), the context-pool cap
// otherwise. Batch drivers size their reap window by this — a Begin past the
// bound parks until a slot is reaped.
func (pl *Plan) MaxInflight() int {
	if pl.ring != nil {
		return epochRing
	}
	return maxPooledCtx
}

// Gang returns the executor admission a single transform reserves: the count
// of ranks local to this process (p in-process, usually 1 for a socket root).
func (pl *Plan) Gang() int { return pl.gang }

// N returns the global transform size; P the number of ranks.
func (pl *Plan) N() int { return pl.n }

// P returns the number of ranks.
func (pl *Plan) P() int { return pl.p }

// Transform computes the forward DFT of src into dst using p ranks.
// src and dst have length N and belong to the root rank's process; every
// other rank works on a private q-point slice, distributed by an explicit
// root-rank scatter and collected by a gather — unless the transport grants
// shared memory, in which case rank j reads src[j·q:(j+1)·q] and writes
// dst[j·q:(j+1)·q] directly (the in-process zero-copy fast path).
//
// Transform is safe for concurrent use; each invocation draws a pooled
// execution context, so the steady-state cost of a call is the p rank
// goroutines and nothing else.
func (pl *Plan) Transform(dst, src []complex128) (core.Report, error) {
	return pl.TransformContext(context.Background(), dst, src)
}

// TransformContext is Transform with cancellation. A canceled context aborts
// the execution context's communicator, so ranks parked in a transpose
// receive unwind immediately; compute-bound stages observe the cancellation
// at their next sub-FFT boundary. The same abort path fires when any rank
// fails (e.g. exhausts its retry budget): its peers return the failing
// rank's error instead of deadlocking in Recv.
func (pl *Plan) TransformContext(ctx context.Context, dst, src []complex128) (core.Report, error) {
	if pl.p == 1 {
		// Direct path keeps the sequential steady state allocation-free.
		if len(dst) < pl.n || len(src) < pl.n {
			return core.Report{}, fmt.Errorf("parallel: buffers too short for size %d", pl.n)
		}
		if err := ctx.Err(); err != nil {
			return core.Report{}, err
		}
		return pl.runSeq(ctx, dst, src)
	}
	inv, err := pl.Begin(ctx, dst, src)
	if err != nil {
		return core.Report{}, err
	}
	return inv.Wait()
}

// runSeq is the single-rank fallback: one in-place protected transform on a
// pooled context, no communicator, no executor round-trip.
func (pl *Plan) runSeq(ctx context.Context, dst, src []complex128) (core.Report, error) {
	ec, err := pl.getCtx(ctx)
	if err != nil {
		return core.Report{}, err
	}
	copy(dst[:pl.n], src[:pl.n])
	rep, err := ec.seq.TransformContext(ctx, dst[:pl.n])
	pl.finishCtx(ec, err == nil)
	return rep, err
}

// Invocation is one in-flight parallel transform: the execution context it
// drew and the rank task group launched on the executor. Begin/Wait exist so
// batch drivers can pipeline several invocations — the executor's admission
// queue, not per-item goroutines, provides the concurrency.
type Invocation struct {
	pl *Plan
	ec *execCtx
	l  *mpi.Launch

	// epoched marks a transport-backed invocation: it drew an epoch in Begin
	// and must close it (world.EpochEnd) in Wait.
	epoched bool

	// p == 1 fast path: the transform completed synchronously in Begin.
	done bool
	rep  core.Report
	err  error
}

// Begin validates the call, reserves executor admission for the rank group,
// draws an execution context, and launches the fan-out. It blocks while the
// executor is saturated (admission is FIFO, so callers drain in arrival
// order) and returns once the ranks are running; join with Wait.
//
// Order matters: admission is reserved before the execution context is
// drawn, so a caller queueing at a saturated executor holds no world — the
// plan's context pool serves the gangs actually running, not the line
// waiting to run. An admission-time cancellation returns ctx.Err() with no
// context consumed.
func (pl *Plan) Begin(ctx context.Context, dst, src []complex128) (*Invocation, error) {
	if len(dst) < pl.n || len(src) < pl.n {
		return nil, fmt.Errorf("parallel: buffers too short for size %d", pl.n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if pl.p == 1 {
		inv := &Invocation{pl: pl, done: true}
		inv.rep, inv.err = pl.runSeq(ctx, dst, src)
		return inv, nil
	}
	res, err := pl.ex.Reserve(ctx, pl.gang)
	if err != nil {
		return nil, err
	}
	ec, err := pl.getCtx(ctx)
	if err != nil {
		res.Cancel()
		return nil, err
	}
	if cause := ec.world.AbortCause(); cause != nil {
		// A transport-backed world is permanent; once its wire died, every
		// later Transform fails fast with the root cause.
		pl.finishCtx(ec, false)
		res.Cancel()
		return nil, fmt.Errorf("parallel: world is dead: %w", cause)
	}
	inv := &Invocation{pl: pl, ec: ec}
	if pl.ring != nil {
		// Assign this transform the next epoch and stamp it on the slot's
		// endpoints: its frames match only against this epoch's receives, so
		// a later transform's scatter can overtake an earlier gather on the
		// wire without crossing streams. Epochs count up in Begin order —
		// remote serve lanes expect exactly that sequence.
		epoch := pl.epochSeq.Add(1) - 1
		for _, r := range ec.world.LocalRanks() {
			ec.ranks[r].comm.SetEpoch(epoch)
		}
		ec.world.EpochBegin()
		inv.epoched = true
	}
	inv.l = ec.world.LaunchReserved(ctx, res, func(c *mpi.Comm) error {
		rank := c.Rank()
		rep, err := pl.rankBody(ctx, ec.ranks[rank], dst, src)
		ec.reports[rank] = rep
		// A non-nil return is the poison-pill broadcast (LaunchReserved
		// aborts the world), so peers blocked on this rank's blocks return
		// the root cause instead of hanging.
		return err
	})
	return inv, nil
}

// Wait joins the rank group and aggregates the per-rank reports. A cleanly
// finished context returns to the plan's pool; one that aborted (rank
// failure or cancellation) is discarded, since its world may hold
// undelivered messages.
func (inv *Invocation) Wait() (core.Report, error) {
	if inv.done {
		return inv.rep, inv.err
	}
	pl, ec := inv.pl, inv.ec
	firstErr := inv.l.Wait()
	if inv.epoched {
		ec.world.EpochEnd()
	}
	var total core.Report
	for r := 0; r < pl.p; r++ {
		total.Add(ec.reports[r])
	}
	if firstErr == nil {
		// A world aborted by a cancel that raced completion is dropped
		// (finishCtx keeps transport ring slots either way); the finished
		// results are still valid.
		pl.finishCtx(ec, !ec.world.Aborted())
		return total, nil
	}
	// Prefer the root cause over the abort echoes the other ranks report.
	if cause := ec.world.AbortCause(); cause != nil {
		firstErr = cause
	}
	pl.finishCtx(ec, false)
	return total, firstErr
}

// Serve runs this process's ranks of a distributed world: for every
// transform the root process initiates, the local rank bodies run their
// slice of the six-step pipeline — blocked in the scatter receive between
// transforms — until the root shuts the wire down (Serve returns nil) or a
// rank fails (Serve returns the cause, after the abort has been propagated
// to every process). The plan must have been built over an explicit
// Transport whose placement puts at least one rank here; it must mirror the
// root's geometry and scheme exactly, which is what the wire handshake's
// WorldMeta guarantees.
//
// Serve runs epochRing concurrent lanes, mirroring the root's epoch ring:
// lane s handles epochs s, s+R, s+2R, … (the root assigns epochs to
// transforms sequentially), so transform k+1's scatter is consumed while
// transform k's gather drains. Lanes reserve executor admission in strict
// epoch order (a turn token circulates lane→lane), so a small executor
// degrades gracefully to the old serial schedule: the lane holding the one
// admission slot is always the lane whose epoch the root is driving.
func (pl *Plan) Serve(ctx context.Context) error {
	if pl.cfg.Transport == nil || pl.p == 1 {
		return fmt.Errorf("parallel: Serve needs a plan over an explicit multi-rank transport")
	}
	lanes := make([]*execCtx, 0, epochRing)
	for i := 0; i < epochRing; i++ {
		ec, err := pl.getCtx(ctx)
		if err != nil {
			for _, held := range lanes {
				pl.finishCtx(held, false)
			}
			return err
		}
		lanes = append(lanes, ec)
	}
	turns := make([]chan struct{}, len(lanes))
	for i := range turns {
		turns[i] = make(chan struct{}, 1)
	}
	turns[0] <- struct{}{} // epoch 0 reserves first
	// One cancellation watcher for the whole serve loop: the lanes share one
	// world and one ctx, so per-round watchers (PR 9) were pure allocation.
	stopWatch := lanes[0].world.WatchContext(ctx)
	defer stopWatch()
	var wg sync.WaitGroup
	errs := make([]error, len(lanes))
	for s, ec := range lanes {
		wg.Add(1)
		go func(s int, ec *execCtx) {
			defer wg.Done()
			defer pl.finishCtx(ec, false)
			next := turns[(s+1)%len(turns)]
			errs[s] = pl.serveLane(ctx, ec, uint32(s), uint32(len(lanes)), turns[s], next)
		}(s, ec)
	}
	wg.Wait()
	// The lanes share one world, so a failure anywhere aborts them all; the
	// root cause beats the per-lane echoes, and a clean goodbye is success.
	if cause := lanes[0].world.AbortCause(); cause != nil && !errors.Is(cause, mpi.ErrShutdown) {
		return cause
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serveLane is one Serve lane: it runs this process's rank bodies for epochs
// epoch, epoch+stride, epoch+2·stride, … until shutdown (nil), cancellation,
// or a world abort (the cause). turn gates executor admission: the lane
// reserves only when the token says its epoch is next, then passes the token
// on, so admission order matches epoch order and a lane can never starve the
// lane whose epoch the root is actually driving. A lane that exits without
// passing the token leaves its peers parked on turn — safe, because every
// exit path below has closed the world or canceled ctx, and the peers select
// on both.
func (pl *Plan) serveLane(ctx context.Context, ec *execCtx, epoch, stride uint32, turn, next chan struct{}) error {
	// The lane's rank fan-out is identical every round, so the gang and every
	// rank-body closure are prebuilt once here and the round loop below runs
	// allocation-free: reservation into a stack slot, prebuilt launch, wait.
	// Cancellation unwinds through Serve's world-level WatchContext.
	lane := ec.world.NewLane(pl.ex, func(c *mpi.Comm) error {
		_, err := pl.rankBody(ctx, ec.ranks[c.Rank()], nil, nil)
		return err
	})
	var res exec.Reservation
	for {
		select {
		case <-turn:
		case <-ctx.Done():
			return ctx.Err()
		case <-ec.world.Done():
			if err := ec.world.AbortCause(); !errors.Is(err, mpi.ErrShutdown) {
				return err
			}
			return nil
		}
		if err := pl.ex.ReserveInto(ctx, pl.gang, &res); err != nil {
			return err
		}
		next <- struct{}{}
		for _, r := range ec.world.LocalRanks() {
			ec.ranks[r].comm.SetEpoch(epoch)
		}
		ec.world.EpochBegin()
		lane.Launch(&res)
		err := lane.Wait()
		ec.world.EpochEnd()
		if err != nil {
			if errors.Is(err, mpi.ErrShutdown) {
				return nil
			}
			if cause := ec.world.AbortCause(); cause != nil && !errors.Is(err, cause) {
				return cause
			}
			return err
		}
		epoch += stride
	}
}

const (
	tagTran1   = 1
	tagTran2   = 2
	tagTran3   = 3
	tagScatter = 4 // root → rank: the rank's q-point input slice
	tagGather  = 5 // rank → root: the rank's q-point output slice
	tagReport  = 6 // rank → root: encoded per-rank Report (distributed worlds)
)

// rankBody is the per-rank six-step pipeline, running entirely out of the
// rank's preallocated workspace plus its World endpoints — the algorithm
// layer is transport-pure. Only the root rank (rank 0, in the caller's
// process) touches the caller's dst/src slices; every other rank receives
// its input slice in an explicit root-rank scatter and returns its output in
// an explicit gather, both checksum-protected when the plan is. When the
// transport grants the SharedMemory capability (the in-process chan wire),
// ranks skip the exchange and copy their slices directly — the zero-copy
// fast path, chosen by capability, never assumed. ctx is checked between
// stages (the communication stages additionally unwind via the world abort).
func (pl *Plan) rankBody(ctx context.Context, rs *rankState, dst, src []complex128) (core.Report, error) {
	var rep core.Report
	q := pl.q
	rank := rs.comm.Rank()

	// The rank's input slice: read straight from the caller's src on the
	// shared path and at the root (transpose 1 only reads it), received into
	// the workspace everywhere else.
	local, recvBuf := rs.local, rs.recv
	in := local
	if rs.shared || rank == 0 {
		in = src[rank*q : (rank+1)*q]
	}
	if !rs.shared {
		if err := pl.scatterInput(rs, local, src, &rep); err != nil {
			return rep, err
		}
	}

	sigma0 := roundoff.RMSStrided(in, min(q, 512), max(1, q/512))
	if sigma0 == 0 {
		sigma0 = 1
	}
	etaScale := pl.cfg.EtaScale
	if etaScale == 0 {
		etaScale = 1
	}

	// ---- Transpose 1 ----
	if err := pl.transpose(rs, in, recvBuf, nil, tagTran1, &rep); err != nil {
		return rep, err
	}
	local, recvBuf = recvBuf, local

	// ---- FFT1: b p-point FFTs over stride b, batched into the spare buffer ----
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if err := pl.fft1(rs, local, recvBuf, sigma0, etaScale, &rep); err != nil {
		return rep, err
	}
	local, recvBuf = recvBuf, local

	// ---- Transpose 2 ----
	if err := pl.transpose(rs, local, recvBuf, nil, tagTran2, &rep); err != nil {
		return rep, err
	}
	local, recvBuf = recvBuf, local

	// ---- Twiddle ω_N^{n1·rank} (DMR), staged in the now-free spare ----
	pl.twiddleLocal(rs, local, recvBuf, &rep)

	// ---- FFT2: q-point in-place (two- or three-layer protected) ----
	r2, err := rs.fft2.TransformContext(ctx, local)
	rep.Add(r2)
	if err != nil {
		return rep, err
	}

	// ---- Transpose 3 + local adjustment ----
	// The root writes its slice of the output in place either way; non-root
	// ranks write the caller's dst directly only on the shared fast path.
	out := rs.out
	if rs.shared || rank == 0 {
		out = dst[rank*q : (rank+1)*q]
	}
	if err := pl.transpose(rs, local, nil, out, tagTran3, &rep); err != nil {
		return rep, err
	}
	if !rs.shared {
		if err := pl.gatherOutput(rs, out, dst, &rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// scatterInput is the explicit input distribution of message mode: the root
// rank sends every peer its q-point slice of src (its own slice stays in
// src, where transpose 1 reads it); peers receive into their local
// workspace. Protected plans attach a checksum pair to each slice and
// verify (single-element-repairing) on receipt — an input slice corrupted on
// the wire is healed before the pipeline consumes it.
func (pl *Plan) scatterInput(rs *rankState, local, src []complex128, rep *core.Report) error {
	c := rs.comm
	q := pl.q
	if c.Rank() == 0 {
		for j := 1; j < pl.p; j++ {
			blk := src[j*q : (j+1)*q]
			if pl.weightsQ != nil {
				c.IsendPair(j, tagScatter, blk, pl.weightsQ)
			} else {
				c.Send(j, tagScatter, blk, nil)
			}
		}
		return nil
	}
	cs, has, cur, err := c.IrecvPair(0, tagScatter, local, pl.weightsQ).WaitPair()
	if err != nil {
		return err
	}
	return pl.verifySlice(c.Rank(), 0, local, pl.weightsQ, cs, has, cur, rep)
}

// gatherOutput is the explicit output collection of message mode: every
// non-root rank sends its finished q-point slice to the root, which writes
// it (after checksum verification) straight into the caller's dst. In a
// distributed world the non-root ranks also ship their Reports, so the
// caller's aggregate accounting covers remote fault activity.
func (pl *Plan) gatherOutput(rs *rankState, out, dst []complex128, rep *core.Report) error {
	c := rs.comm
	q := pl.q
	if c.Rank() != 0 {
		if pl.weightsQ != nil {
			c.IsendPair(0, tagGather, out, pl.weightsQ)
		} else {
			c.Send(0, tagGather, out, nil)
		}
		if rs.dist {
			encodeReport(rs.repBuf, *rep)
			if pl.weightsR != nil {
				c.IsendPair(0, tagReport, rs.repBuf, pl.weightsR)
			} else {
				c.Send(0, tagReport, rs.repBuf, nil)
			}
		}
		return nil
	}
	for j := 1; j < pl.p; j++ {
		slot := dst[j*q : (j+1)*q]
		cs, has, cur, err := c.IrecvPair(j, tagGather, slot, pl.weightsQ).WaitPair()
		if err != nil {
			return err
		}
		if err := pl.verifySlice(0, j, slot, pl.weightsQ, cs, has, cur, rep); err != nil {
			return err
		}
	}
	if rs.dist {
		for j := 1; j < pl.p; j++ {
			cs, has, cur, err := c.IrecvPair(j, tagReport, rs.repBuf, pl.weightsR).WaitPair()
			if err != nil {
				return err
			}
			if err := pl.verifySlice(0, j, rs.repBuf, pl.weightsR, cs, has, cur, rep); err != nil {
				return err
			}
			rep.Add(decodeReport(rs.repBuf))
		}
	}
	return nil
}

// verifySlice checks a received scatter/gather/report message against its
// carried checksums, repairing a single corrupted element in place. cur is
// the receiver-side pair, computed during the fused decode sweep
// (mpi.WaitPair) — bit-identical to a separate checksum.GeneratePair pass.
func (pl *Plan) verifySlice(rank, from int, slice, weights []complex128, cs [2]complex128, hasCS bool, cur checksum.Pair, rep *core.Report) error {
	if weights == nil || !hasCS {
		return nil
	}
	stored := checksum.Pair{D1: cs[0], D2: cs[1]}
	d := stored.Sub(cur)
	if d.D1 == 0 && d.D2 == 0 {
		return nil
	}
	rep.Detections++
	j, ok := checksum.Locate(d, len(weights))
	if !ok {
		rep.Uncorrectable = true
		return fmt.Errorf("parallel: rank %d: unrecoverable corruption in slice from %d: %w", rank, from, core.ErrUncorrectable)
	}
	slice[j] += d.D1 / weights[j]
	rep.MemCorrections++
	return nil
}

// reportWords is the encoded size of a core.Report on the wire: five
// counters plus the uncorrectable flag, one real-valued word each.
const reportWords = 6

// encodeReport serializes rep into buf (length reportWords). Counters ride
// in real parts; float64 holds every realistic count exactly.
func encodeReport(buf []complex128, rep core.Report) {
	buf[0] = complex(float64(rep.Detections), 0)
	buf[1] = complex(float64(rep.CompRecomputations), 0)
	buf[2] = complex(float64(rep.MemCorrections), 0)
	buf[3] = complex(float64(rep.TwiddleCorrections), 0)
	buf[4] = complex(float64(rep.FullRestarts), 0)
	buf[5] = 0
	if rep.Uncorrectable {
		buf[5] = 1
	}
}

// decodeReport is the inverse of encodeReport. Counters round rather than
// truncate: a report frame repaired in transit restores its values to within
// rounding of the exact integers, not necessarily bit-exactly.
func decodeReport(buf []complex128) core.Report {
	return core.Report{
		Detections:         int(math.Round(real(buf[0]))),
		CompRecomputations: int(math.Round(real(buf[1]))),
		MemCorrections:     int(math.Round(real(buf[2]))),
		TwiddleCorrections: int(math.Round(real(buf[3]))),
		FullRestarts:       int(math.Round(real(buf[4]))),
		Uncorrectable:      real(buf[5]) != 0,
	}
}

// deliver verifies (and single-element-repairs) a received block in place
// and, for transpose 3, scatters it with stride p into scatterOut (the fused
// local adjustment). Transposes 1 and 2 receive each block straight into its
// destination slot, so there is nothing left to move. cur is the
// receiver-side pair from the fused decode sweep (mpi.WaitPair).
func (pl *Plan) deliver(rank, s int, block []complex128, cs [2]complex128, hasCS bool, cur checksum.Pair, scatterOut []complex128, rep *core.Report) error {
	b := pl.b
	if pl.cfg.Protected && hasCS {
		stored := checksum.Pair{D1: cs[0], D2: cs[1]}
		d := stored.Sub(cur)
		// Same data, same summation order: clean transfers compare
		// exactly; any difference is a transit/memory corruption.
		if d.D1 != 0 || d.D2 != 0 {
			rep.Detections++
			j, ok := checksum.Locate(d, b)
			if !ok {
				rep.Uncorrectable = true
				return fmt.Errorf("parallel: rank %d: unrecoverable corruption in block from %d: %w", rank, s, core.ErrUncorrectable)
			}
			block[j] += d.D1 / pl.weightsB[j]
			rep.MemCorrections++
		}
	}
	if scatterOut != nil {
		// scatterOut[t·p + s] = block[t]: interleave by origin rank.
		idx := s
		for t := 0; t < b; t++ {
			scatterOut[idx] = block[t]
			idx += pl.p
		}
	}
	return nil
}

// transpose performs the all-to-all block exchange. Blocks carry weighted
// checksums when the plan is protected; receivers verify and repair single
// corrupted elements. With cfg.Optimized the exchange is pipelined
// (Algorithm 3): while waiting for peer i's block, peer i+1's send is
// already posted and peer i-1's block is being verified and processed.
//
// If scatterOut is nil, the block from rank s is received straight into
// dest[s·b:(s+1)·b] and verified there; otherwise it lands in a workspace
// buffer and is strided into scatterOut (dest may then be nil).
func (pl *Plan) transpose(rs *rankState, send, dest, scatterOut []complex128, tag int, rep *core.Report) error {
	b := pl.b
	c := rs.comm
	rank := c.Rank()
	sched := rs.sched

	// Protected blocks fuse §5 checksum generation into the send-side payload
	// capture and verification into the receive-side decode (mpi.IsendPair /
	// WaitPair): one pass over each block where the separate-pass scheme took
	// two, with bit-identical checksum values.
	var wB []complex128
	if pl.cfg.Protected {
		wB = pl.weightsB
	}
	// landing returns the receive buffer for the block from rank s: its
	// destination slot, or (transpose 3) the workspace buffer buf.
	landing := func(s int, buf []complex128) []complex128 {
		if scatterOut == nil {
			return dest[s*b : (s+1)*b]
		}
		return buf
	}

	if !pl.cfg.Optimized {
		// Blocking transpose: send everything, then drain in order.
		for _, dstRank := range sched {
			blk := send[dstRank*b : (dstRank+1)*b]
			if wB != nil {
				c.IsendPair(dstRank, tag, blk, wB)
			} else {
				c.Send(dstRank, tag, blk, nil)
			}
		}
		for _, s := range sched {
			buf := landing(s, rs.blockBuf)
			cs, has, cur, err := c.IrecvPair(s, tag, buf, wB).WaitPair()
			if err != nil {
				return err
			}
			if err := pl.deliver(rank, s, buf, cs, has, cur, scatterOut, rep); err != nil {
				return err
			}
		}
		return nil
	}

	// Pipelined transpose (Algorithm 3): double-buffered receives; checksum
	// generation for the next send and verification of the previous block
	// overlap the in-flight exchange.
	prevBuf, nextBuf := rs.rb1, rs.rb2
	var prevReq *mpi.RecvRequest
	var prevSrc int
	for _, peer := range sched {
		blk := send[peer*b : (peer+1)*b]
		// Checksum generated while the previous exchange is in flight.
		if wB != nil {
			c.IsendPair(peer, tag, blk, wB)
		} else {
			c.Isend(peer, tag, blk, nil)
		}
		req := c.IrecvPair(peer, tag, landing(peer, nextBuf), wB)
		if prevReq != nil {
			pcs, phas, pcur, err := prevReq.WaitPair()
			if err != nil {
				return err
			}
			if err := pl.deliver(rank, prevSrc, landing(prevSrc, prevBuf), pcs, phas, pcur, scatterOut, rep); err != nil {
				return err
			}
		}
		prevReq, prevSrc = req, peer
		prevBuf, nextBuf = nextBuf, prevBuf
	}
	pcs, phas, pcur, err := prevReq.WaitPair()
	if err != nil {
		return err
	}
	return pl.deliver(rank, prevSrc, landing(prevSrc, prevBuf), pcs, phas, pcur, scatterOut, rep)
}

// fft1 runs the b p-point sub-FFTs over stride b — the columns of in, a
// row-major p×b matrix — as one batched sweep (fft.Plan.ExecuteColumns) into
// out, which ends up in exactly the layout the in-place per-column transform
// would leave: out[k·b + t] is bin k of column t. The strided input stays
// intact as the Fig. 4 backup. When protected, dual-use input checksums are
// generated in one contiguous row sweep before the batch, and each column is
// then verified in order; a column that fails is checked against its backup
// and recomputed on its own.
func (pl *Plan) fft1(rs *rankState, in, out []complex128, sigma0, etaScale float64, rep *core.Report) error {
	p, b := pl.p, pl.b
	plan := pl.fftP
	if !pl.cfg.Protected {
		plan.ExecuteColumns(out, in, b)
		return nil
	}
	rank := rs.comm.Rank()
	cp := pl.checkP
	eta := etaScale * roundoff.EtaStage1(p, sigma0)
	maxRetries := pl.cfg.MaxRetries
	if maxRetries == 0 {
		maxRetries = 3
	}

	// CMCG: one contiguous row sweep accumulating one pair per sub-FFT. Each
	// column's terms still add in n2 order, as GeneratePairStrided adds them
	// in the postponed MCV below, so clean columns compare bit for bit.
	pairs := rs.pairs
	for i := range pairs {
		pairs[i] = checksum.Pair{}
	}
	for n2 := 0; n2 < p; n2++ {
		w := cp[n2]
		jn := complex(float64(n2), 0)
		for t, v := range in[n2*b : (n2+1)*b] {
			wv := w * v
			pairs[t].D1 += wv
			pairs[t].D2 += jn * wv
		}
	}

	plan.ExecuteColumns(out, in, b)

	bufOut := rs.bufOut
	for t := 0; t < b; t++ {
		col := out[t:]
		cx := pairs[t].D1
		ok := false
		for attempt := 0; attempt <= maxRetries; attempt++ {
			if attempt > 0 {
				plan.ExecuteStrided(bufOut, in[t:], b)
				scatterStride(col, bufOut, p, b)
			}
			fault.Visit(pl.cfg.Injector, fault.SiteParallelFFT1, rank, col, p, b)
			outSum := checksum.DotOmega3Strided(col, p, b)
			// |Re d|+|Im d| bounds |d|, so a difference this small passes
			// the full test below without its three Hypot calls.
			if d := outSum - cx; math.Abs(real(d))+math.Abs(imag(d)) <= eta {
				ok = true
				break
			}
			diff := cmplx.Abs(outSum - cx)
			floor := relFloor(p, outSum, cx)
			if diff <= eta+floor {
				ok = true
				break
			}
			rep.Detections++
			// Postponed MCV: disambiguate input memory vs computation.
			cur := checksum.GeneratePairStrided(cp, in[t:], p, b)
			d := pairs[t].Sub(cur)
			if cmplx.Abs(d.D1) > eta {
				if jj, located := checksum.Locate(d, p); located {
					in[t+jj*b] += d.D1 / cp[jj]
					rep.MemCorrections++
					continue
				}
				rep.Uncorrectable = true
				return fmt.Errorf("parallel: rank %d: unrecoverable FFT1 input corruption: %w", rank, core.ErrUncorrectable)
			}
			rep.CompRecomputations++
		}
		if !ok {
			rep.Uncorrectable = true
			return fmt.Errorf("parallel: rank %d: FFT1 retries exhausted: %w", rank, core.ErrUncorrectable)
		}
	}
	return nil
}

// twiddleChunk is the twiddle stage's fault-visit granularity: the injector
// sees the staged products twiddleChunk elements at a time.
const twiddleChunk = 1024

// twiddleLocal applies local[n1] ·= ω_N^{n1·rank} with DMR when protected,
// using the plan's precomputed twiddle row for this rank. The first run's
// products are staged in stage (q elements, free at this point: transpose 2
// has sent them on) where the injector strikes them; the second run
// rechecks each one and writes the voted value back in the same loop.
func (pl *Plan) twiddleLocal(rs *rankState, local, stage []complex128, rep *core.Report) {
	rank := rs.comm.Rank()
	tw := pl.twiddle[rank*pl.q : (rank+1)*pl.q]
	if !pl.cfg.Protected {
		for i := range local {
			local[i] *= tw[i]
		}
		return
	}
	for off := 0; off < pl.q; off += twiddleChunk {
		end := min(off+twiddleChunk, pl.q)
		spart, lpart, tpart := stage[off:end], local[off:end], tw[off:end]
		for i, v := range lpart {
			spart[i] = v * tpart[i]
		}
		fault.Visit(pl.cfg.Injector, fault.SiteTwiddle, rank, spart, len(spart), 1)
		for i, v := range lpart {
			v1, v2 := spart[i], v*tpart[i]
			if v1 != v2 {
				rep.Detections++
				if v3 := v * tpart[i]; v2 == v3 {
					v1 = v2
				}
				rep.TwiddleCorrections++
			}
			lpart[i] = v1
		}
	}
}

func relFloor(n int, a, b complex128) float64 {
	return 64 * 2.220446049250313e-16 * math.Sqrt(float64(n)) * (cmplx.Abs(a) + cmplx.Abs(b))
}

func scatterStride(dst, src []complex128, n, stride int) {
	idx := 0
	for j := 0; j < n; j++ {
		dst[idx] = src[j]
		idx += stride
	}
}
