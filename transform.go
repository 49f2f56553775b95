package ftfft

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"ftfft/internal/core"
	"ftfft/internal/exec"
)

// Transform is the unified executor every planner composition produces: one
// protected FFT with many execution strategies, behind one cancellable
// contract. Forward and Inverse compute out-of-place DFTs of exactly Len()
// points; ForwardBatch amortizes plan state across many transforms. All
// methods are safe for concurrent use — concurrent calls draw separate
// execution contexts from an internal pool.
//
// Cancellation: ctx is observed at sub-transform boundaries (and, for
// parallel transforms, unblocks ranks parked in a transpose receive via a
// communicator abort). A canceled call returns ctx.Err() with dst in an
// unspecified state. The returned Report is valid even alongside an error.
type Transform interface {
	// Forward computes X_j = Σ_t x_t·exp(-2πi·jt/N) from src into dst (2-D
	// shapes transform rows then columns). dst and src must each hold Len()
	// elements and must not alias. When memory protection is active and an
	// input memory fault is detected, src is repaired in place.
	Forward(ctx context.Context, dst, src []complex128) (Report, error)
	// Inverse computes the inverse DFT (1/N normalization) under the same
	// protection, via the conjugation identity IDFT(x) = conj(DFT(conj(x)))/N
	// — the entire ABFT machinery guards the inverse path too.
	Inverse(ctx context.Context, dst, src []complex128) (Report, error)
	// ForwardBatch runs Forward for every (dst[i], src[i]) pair, reusing the
	// plan's pooled execution contexts across items (and running items
	// concurrently when cores are idle). Outputs are bit-identical to the
	// equivalent sequence of Forward calls; with a stateful Injector
	// installed, which item a scheduled fault strikes may differ between
	// batched and unbatched runs, because concurrent items race for the
	// injector's occurrence counters. The aggregate Report sums all items;
	// the first failing item stops the batch.
	ForwardBatch(ctx context.Context, dst, src [][]complex128) (Report, error)
	// Len returns the total number of points per transform.
	Len() int
	// Dims returns a copy of the N-D geometry: one entry per axis of the
	// row-major shape. 1-D transforms report [Len()].
	Dims() []int
	// Shape is the 2-D compatibility view of Dims: (dims[0], Len()/dims[0])
	// — exactly (rows, cols) for a 2-D transform; 1-D transforms report
	// (1, Len()).
	Shape() (rows, cols int)
	// Ranks returns the parallelism degree: simulated ranks for a parallel
	// 1-D transform, axis-pass dispatch width for an N-D transform,
	// 1 otherwise.
	Ranks() int
	// Protection returns the configured fault-tolerance scheme.
	Protection() Protection
}

// New plans an n-point protected transform. The zero option set is a plain
// sequential 1-D FFT; options compose protection (WithProtection), geometry
// (WithDims / WithShape) and parallelism (WithRanks):
//
//	ftfft.New(1<<20, ftfft.WithProtection(ftfft.OnlineABFTMemory))
//	ftfft.New(1<<20, ftfft.WithRanks(8), ftfft.WithProtection(ftfft.OnlineABFTMemory))
//	ftfft.New(rows*cols, ftfft.WithShape(rows, cols), ftfft.WithRanks(4))
//	ftfft.New(64*64*64, ftfft.WithDims(64, 64, 64), ftfft.WithRanks(8))
//
// Like FFTW, plans front-load all derived state — FFT sub-plans, twiddle
// tables, checksum weight vectors, communicators and workspaces — so
// executing a Transform allocates nothing in steady state. All dispatch
// (rank fan-out, 2-D passes, batch items) runs on one bounded executor: the
// process-wide default, or a private one via WithWorkers / WithExecutor.
func New(n int, opts ...Option) (Transform, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if err := c.validate(n); err != nil {
		return nil, err
	}
	private := false
	switch {
	case c.executorSet:
		c.pool = c.executor.pool
	case c.workers > 0:
		c.pool = exec.New(c.workers)
		private = true
	default:
		c.pool = exec.Default()
	}
	if c.rows != 0 || c.cols != 0 {
		c.dims = []int{c.rows, c.cols} // WithShape is WithDims(rows, cols)
	}
	var t Transform
	var err error
	switch {
	case len(c.dims) >= 2:
		t, err = newNDTransform(c)
	case c.ranks > 1:
		t, err = newParTransform(n, c)
	default:
		t, err = newSeqTransform(n, c)
	}
	if err != nil {
		return nil, err
	}
	if private {
		// A WithWorkers pool lives and dies with its Transform: reclaim the
		// parked worker goroutines once the plan is unreachable. AddCleanup
		// needs the concrete pointer, not the interface.
		closePool := func(p *exec.Pool) { p.Close() }
		switch tt := t.(type) {
		case *seqTransform:
			runtime.AddCleanup(tt, closePool, c.pool)
		case *parTransform:
			runtime.AddCleanup(tt, closePool, c.pool)
		case *ndTransform:
			runtime.AddCleanup(tt, closePool, c.pool)
		}
	}
	return t, nil
}

// validate is the uniform construction-time audit: every option's invalid
// range is rejected here, with one error shape, before any plan state is
// built. The zero value of every option is valid (and means "default").
func (c *config) validate(n int) error {
	if n < 1 {
		return fmt.Errorf("ftfft: invalid transform size %d", n)
	}
	if c.ranks < 0 {
		return fmt.Errorf("ftfft: invalid rank count %d", c.ranks)
	}
	if c.etaScale < 0 || math.IsNaN(c.etaScale) {
		return fmt.Errorf("ftfft: invalid eta scale %v", c.etaScale)
	}
	if c.maxRetries < 0 {
		return fmt.Errorf("ftfft: invalid retry limit %d", c.maxRetries)
	}
	if c.workers < 0 {
		return fmt.Errorf("ftfft: invalid worker count %d", c.workers)
	}
	if c.tuning != TuneEstimate && c.tuning != TuneMeasured && c.tuning != tuneWisdom {
		return fmt.Errorf("ftfft: invalid tuning mode %d", int(c.tuning))
	}
	if c.batchWindow < 0 || c.batchWindow > maxBatchWorlds {
		return fmt.Errorf("ftfft: invalid batch window %d (0 means auto, max %d)", c.batchWindow, maxBatchWorlds)
	}
	if c.workers > 0 && c.executorSet {
		return fmt.Errorf("ftfft: invalid executor options: WithWorkers and WithExecutor are mutually exclusive")
	}
	if c.transport != nil {
		if c.ranks < 2 {
			return fmt.Errorf("ftfft: invalid transport options: WithTransport needs WithRanks ≥ 2, got %d", c.ranks)
		}
		if c.dimsSet || c.rows != 0 || c.cols != 0 {
			return fmt.Errorf("ftfft: invalid transport options: WithTransport applies to the parallel 1-D transform, not WithDims/WithShape")
		}
	}
	if c.executorSet && c.executor == nil {
		return fmt.Errorf("ftfft: invalid executor: WithExecutor requires a non-nil Executor")
	}
	if c.noPeerMesh {
		return fmt.Errorf("ftfft: invalid option: WithoutPeerMesh applies to ServeWorker, not New (mesh topology is chosen by the hub: ListenMeshHub vs ListenHub)")
	}
	if c.rows != 0 || c.cols != 0 {
		if c.dimsSet {
			return fmt.Errorf("ftfft: invalid geometry options: WithDims and WithShape are mutually exclusive")
		}
		if c.rows < 1 || c.cols < 1 {
			return fmt.Errorf("ftfft: invalid 2-D shape %d×%d", c.rows, c.cols)
		}
		// Overflow-safe form of n == rows·cols (rows·cols can wrap).
		if n%c.rows != 0 || n/c.rows != c.cols {
			return fmt.Errorf("ftfft: invalid 2-D shape %d×%d for size %d", c.rows, c.cols, n)
		}
	}
	if c.dimsSet {
		if len(c.dims) == 0 {
			return fmt.Errorf("ftfft: invalid dims: WithDims needs at least one axis")
		}
		prod := 1
		for _, d := range c.dims {
			if d < 1 {
				return fmt.Errorf("ftfft: invalid axis length %d in dims %v", d, c.dims)
			}
			// prod·d ≤ n ⇔ prod ≤ n/d (all positive), so the product can
			// never overflow before the mismatch is caught.
			if d > n || prod > n/d {
				return fmt.Errorf("ftfft: invalid dims %v for size %d", c.dims, n)
			}
			prod *= d
		}
		if prod != n {
			return fmt.Errorf("ftfft: invalid dims %v for size %d", c.dims, n)
		}
	}
	return nil
}

// checkArgs is the uniform API-boundary validation every executor applies:
// both buffers must hold n elements and must not alias (all transforms are
// out-of-place).
func checkArgs(n int, dst, src []complex128) error {
	if len(dst) < n || len(src) < n {
		return fmt.Errorf("ftfft: buffers too short: dst=%d src=%d, need %d", len(dst), len(src), n)
	}
	if &dst[0] == &src[0] {
		return fmt.Errorf("ftfft: dst and src alias the same memory; transforms are out-of-place")
	}
	return nil
}

// checkBatch validates a batch: matching item counts, and every pair passes
// checkArgs.
func checkBatch(n int, dst, src [][]complex128) error {
	if len(dst) != len(src) {
		return fmt.Errorf("ftfft: batch size mismatch: %d dst vs %d src", len(dst), len(src))
	}
	for i := range dst {
		if err := checkArgs(n, dst[i], src[i]); err != nil {
			return fmt.Errorf("ftfft: batch item %d: %w", i, err)
		}
	}
	return nil
}

// runIndexed drives items through fn as an executor task group with at most
// width concurrent executions, accumulating the per-slot Reports. fn
// receives its slot index (0 ≤ slot < width) so callers can hand each slot
// private scratch. The calling goroutine always participates (the executor's
// caller-runs contract), so the group completes even when the pool is
// saturated. The first failing item (lowest index) determines the returned
// error, wrapped as "<label> <index>"; later items may have been skipped.
func runIndexed(ctx context.Context, ex *exec.Pool, items, width int, label string, fn func(ctx context.Context, slot, item int) (Report, error)) (Report, error) {
	if width > items {
		width = items
	}
	if width <= 1 {
		// Inline serial path: no dispatch, no allocation — the steady state
		// of serial 2-D passes and single-item batches.
		var total Report
		for i := 0; i < items; i++ {
			if err := ctx.Err(); err != nil {
				return total, err
			}
			rep, err := fn(ctx, 0, i)
			total.Add(rep)
			if err != nil {
				return total, fmt.Errorf("ftfft: %s %d: %w", label, i, err)
			}
		}
		return total, nil
	}
	reps := make([]Report, width)
	err := ex.Run(ctx, items, width, func(ctx context.Context, slot, item int) error {
		rep, err := fn(ctx, slot, item)
		reps[slot].Add(rep)
		if err != nil {
			return fmt.Errorf("ftfft: %s %d: %w", label, item, err)
		}
		return nil
	})
	var total Report
	for i := range reps {
		total.Add(reps[i])
	}
	return total, err
}

// seqTransform is the sequential 1-D executor: a pool of core transformers
// (one drawn per in-flight call) behind the unified contract. Forward and
// Inverse run on the calling goroutine; only ForwardBatch dispatches, as an
// executor task group.
type seqTransform struct {
	n    int
	prot Protection
	cfg  core.Config
	ex   *exec.Pool

	mu   sync.Mutex
	free []*seqCtx
}

// seqCtx is one in-flight call's state: the transformer and the conjugation
// staging buffer the inverse path writes conj(src) into. The buffer is
// allocated on the context's first Inverse, so forward-only plans never
// carry it.
type seqCtx struct {
	tr      *core.Transformer
	scratch []complex128
}

// maxPooledSeq bounds how many idle sequential contexts a plan retains.
const maxPooledSeq = 16

func newSeqTransform(n int, c config) (*seqTransform, error) {
	cfg, err := c.protection.coreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Injector = c.injector
	cfg.EtaScale = c.etaScale
	cfg.MaxRetries = c.maxRetries
	applyCoreTuning(n, &cfg, &c, false)
	ex := c.pool
	if ex == nil {
		ex = exec.Default()
	}
	s := &seqTransform{n: n, prot: c.protection, cfg: cfg, ex: ex}
	// Build the first context eagerly: it validates n against the scheme
	// and pre-warms the pool.
	ec, err := s.newCtx()
	if err != nil {
		return nil, err
	}
	s.free = append(s.free, ec)
	return s, nil
}

func (s *seqTransform) newCtx() (*seqCtx, error) {
	tr, err := core.New(s.n, s.cfg)
	if err != nil {
		return nil, err
	}
	return &seqCtx{tr: tr}, nil
}

func (s *seqTransform) getCtx() (*seqCtx, error) {
	s.mu.Lock()
	if k := len(s.free); k > 0 {
		ec := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		s.mu.Unlock()
		return ec, nil
	}
	s.mu.Unlock()
	return s.newCtx()
}

// putCtx returns a context to the pool. Unlike the parallel worlds, a core
// transformer rewrites all working state per call, so contexts are reusable
// even after a failed transform.
func (s *seqTransform) putCtx(ec *seqCtx) {
	s.mu.Lock()
	if len(s.free) < maxPooledSeq {
		s.free = append(s.free, ec)
	}
	s.mu.Unlock()
}

func (s *seqTransform) Len() int                { return s.n }
func (s *seqTransform) Dims() []int             { return []int{s.n} }
func (s *seqTransform) Shape() (rows, cols int) { return 1, s.n }
func (s *seqTransform) Ranks() int              { return 1 }
func (s *seqTransform) Protection() Protection  { return s.prot }

func (s *seqTransform) Forward(ctx context.Context, dst, src []complex128) (Report, error) {
	if err := checkArgs(s.n, dst, src); err != nil {
		return Report{}, err
	}
	ec, err := s.getCtx()
	if err != nil {
		return Report{}, err
	}
	rep, err := ec.tr.TransformContext(ctx, dst[:s.n], src[:s.n])
	s.putCtx(ec)
	return rep, err
}

func (s *seqTransform) Inverse(ctx context.Context, dst, src []complex128) (Report, error) {
	if err := checkArgs(s.n, dst, src); err != nil {
		return Report{}, err
	}
	ec, err := s.getCtx()
	if err != nil {
		return Report{}, err
	}
	if ec.scratch == nil {
		ec.scratch = make([]complex128, s.n)
	}
	for i := 0; i < s.n; i++ {
		ec.scratch[i] = conj(src[i])
	}
	rep, err := ec.tr.TransformContext(ctx, dst[:s.n], ec.scratch)
	if err == nil {
		inv := complex(1/float64(s.n), 0)
		for i := 0; i < s.n; i++ {
			dst[i] = conj(dst[i]) * inv
		}
	}
	s.putCtx(ec)
	return rep, err
}

func (s *seqTransform) ForwardBatch(ctx context.Context, dst, src [][]complex128) (Report, error) {
	if err := checkBatch(s.n, dst, src); err != nil {
		return Report{}, err
	}
	// Width is capped at the context-pool size, so the steady state never
	// constructs transformers beyond what the pool retains.
	width := min(runtime.GOMAXPROCS(0), maxPooledSeq)
	return runIndexed(ctx, s.ex, len(dst), width, "batch item", func(ctx context.Context, _, i int) (Report, error) {
		return s.Forward(ctx, dst[i], src[i])
	})
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
