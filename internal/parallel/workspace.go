package parallel

import (
	"context"
	"fmt"

	"ftfft/internal/checksum"
	"ftfft/internal/core"
	"ftfft/internal/mpi"
)

// rankState is one rank's reusable workspace: every buffer the six-step
// pipeline touches, sized once at plan build time so the steady-state hot
// path performs no allocation. A rankState is owned by exactly one rank
// goroutine for the duration of a Transform.
type rankState struct {
	comm  *mpi.Comm
	fft2  *core.InPlaceTransformer // q-point protected FFT2, rank-tagged
	sched []int                    // all-to-all peer visit order

	// shared grants the zero-copy fast path: the transport lets this rank
	// read/write the caller's slices directly. dist marks a world whose
	// ranks span several processes (reports must travel to the root).
	// Both are capabilities of the world's transport, resolved at build.
	shared bool
	dist   bool

	local []complex128 // q: the rank's working vector
	recv  []complex128 // q: transpose, FFT1 and twiddle-staging spare (swapped with local)

	rb1, rb2 []complex128 // b: pipelined-transpose double buffers
	blockBuf []complex128 // b: blocking-transpose receive buffer

	pairs  []checksum.Pair // b: FFT1 dual-use input checksum pairs (CMCG)
	bufOut []complex128    // p: FFT1 single-column recomputation staging

	// Message-mode buffers, absent on the shared fast path: out stages the
	// rank's output slice for the explicit gather (non-root ranks only);
	// repBuf carries the encoded per-rank Report to the root of a
	// distributed world.
	out    []complex128
	repBuf []complex128
}

// execCtx bundles everything one Transform invocation needs that cannot be
// shared between concurrent invocations: the per-rank workspaces and
// transformers, the per-rank report slots, and the rank endpoints into the
// mpi.World. Contexts are pooled on the Plan, so back-to-back Transforms
// reuse one context and concurrent Transforms each get their own. An
// in-process context owns a private world; over an explicit Transport the
// plan builds one world and an epoch ring of contexts sharing it — each
// slot's endpoints stamp a distinct epoch per transform, so up to epochRing
// transforms pipeline over the wire without their messages crossing.
type execCtx struct {
	world *mpi.World
	ranks []*rankState // indexed by rank; nil for ranks local to other processes

	seq *core.InPlaceTransformer // p == 1 fallback transformer

	reports []core.Report
}

// coreConfig derives the FFT2 / sequential-fallback configuration from the
// plan's protection settings.
func (pl *Plan) coreConfig() core.Config {
	if !pl.cfg.Protected {
		return core.Config{Scheme: core.Plain}
	}
	return core.Config{
		Scheme: core.Online, Variant: core.Optimized, MemoryFT: true,
		Injector: pl.cfg.Injector, EtaScale: pl.cfg.EtaScale, MaxRetries: pl.cfg.MaxRetries,
	}
}

// newWorld builds the plan's single world over its explicit Transport and
// completes the wire handshake: remote workers get the metadata they need to
// build the identical plan.
func (pl *Plan) newWorld() (*mpi.World, error) {
	w := mpi.NewWorldTransport(pl.p, pl.cfg.Injector, pl.cfg.Transport)
	if wc, ok := pl.cfg.Transport.(mpi.WorldConfigurer); ok {
		if err := wc.ConfigureWorld(mpi.WorldMeta{
			N: pl.n, P: pl.p,
			Protected: pl.cfg.Protected, Optimized: pl.cfg.Optimized,
			EtaScale: pl.cfg.EtaScale, MaxRetries: pl.cfg.MaxRetries,
		}); err != nil {
			return nil, fmt.Errorf("parallel: transport handshake: %w", err)
		}
	}
	return w, nil
}

// newCtx builds a complete execution context: world, endpoints, per-rank
// transformers and workspaces — for the ranks that live in this process.
// All construction-time work lives here.
func (pl *Plan) newCtx() (*execCtx, error) {
	if pl.p == 1 {
		tr, err := core.NewInPlace(pl.n, pl.coreConfig())
		if err != nil {
			return nil, err
		}
		return &execCtx{seq: tr}, nil
	}
	return pl.newCtxOn(mpi.NewWorldTransport(pl.p, pl.cfg.Injector, pl.cfg.Transport))
}

// newCtxOn builds an execution context's rank endpoints and workspaces over
// an existing world. Ring slots of a transport plan all pass the same world:
// each slot gets fresh endpoints (mpi.NewEndpoint), so concurrent slots hold
// independent epoch stamps while sharing the world's matching state.
func (pl *Plan) newCtxOn(world *mpi.World) (*execCtx, error) {
	ec := &execCtx{world: world}
	shared := ec.world.Shared()
	dist := ec.world.Distributed()
	ec.ranks = make([]*rankState, pl.p)
	ec.reports = make([]core.Report, pl.p)
	for _, r := range ec.world.LocalRanks() {
		fft2, err := core.NewInPlace(pl.q, pl.coreConfig())
		if err != nil {
			return nil, err
		}
		fft2.SetRank(r)
		rs := &rankState{
			comm:     ec.world.NewEndpoint(r),
			fft2:     fft2,
			sched:    mpi.TransposeSchedule(r, pl.p),
			shared:   shared,
			dist:     dist,
			local:    make([]complex128, pl.q),
			recv:     make([]complex128, pl.q),
			rb1:      make([]complex128, pl.b),
			rb2:      make([]complex128, pl.b),
			blockBuf: make([]complex128, pl.b),
			pairs:    make([]checksum.Pair, pl.b),
			bufOut:   make([]complex128, pl.p),
		}
		if !shared {
			if r != 0 {
				rs.out = make([]complex128, pl.q)
			}
			rs.repBuf = make([]complex128, reportWords)
		}
		ec.ranks[r] = rs
	}
	return ec, nil
}

// maxPooledCtx bounds how many idle execution contexts a plan retains; it
// caps steady-state memory at maxPooledCtx concurrent-Transform footprints.
const maxPooledCtx = 4

// epochRing is the depth of a transport plan's execution-context ring: how
// many epoch-tagged transforms can pipeline over the one wire at once. Kept
// a power of two so the u32 epoch counter wraps onto the same lane schedule
// (epoch mod epochRing stays consistent across the wrap).
const epochRing = 4

// getCtx pops a pooled context or builds a fresh one. An explicit freelist
// (not a sync.Pool) is used so the steady-state single-caller path is
// deterministically allocation-free across garbage collections. Plans over
// an explicit Transport draw from the fixed epoch ring instead: the wire is
// a physical resource, so callers past the ring depth queue here until a
// slot is reaped.
func (pl *Plan) getCtx(ctx context.Context) (*execCtx, error) {
	if pl.ring != nil {
		select {
		case ec := <-pl.ring:
			return ec, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	pl.mu.Lock()
	if k := len(pl.free); k > 0 {
		ec := pl.free[k-1]
		pl.free[k-1] = nil
		pl.free = pl.free[:k-1]
		pl.mu.Unlock()
		return ec, nil
	}
	pl.mu.Unlock()
	return pl.newCtx()
}

// finishCtx returns a context after an invocation. Cleanly finished contexts
// go back to the pool; ones whose world aborted are dropped (the world may
// hold undelivered messages) — except transport ring slots, which are always
// returned so later callers fail fast on the dead wire instead of blocking
// forever on an empty ring.
func (pl *Plan) finishCtx(ec *execCtx, clean bool) {
	if pl.ring != nil {
		pl.ring <- ec
		return
	}
	if !clean {
		return
	}
	pl.mu.Lock()
	if len(pl.free) < maxPooledCtx {
		pl.free = append(pl.free, ec)
	}
	pl.mu.Unlock()
}

// PooledContexts reports how many idle execution contexts the plan retains
// and the pool cap (the epoch-ring depth for transport plans); a burst of
// concurrent Transforms never pins more than the cap once it drains.
// Exposed for the context-pool bound tests.
func (pl *Plan) PooledContexts() (free, capacity int) {
	if pl.ring != nil {
		return len(pl.ring), epochRing
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.free), maxPooledCtx
}
