// Package ftfft is a soft-error-resilient FFT library: a from-scratch Go
// reproduction of "Correcting Soft Errors Online in Fast Fourier Transform"
// (Liang et al., SC '17), the paper that introduced the first *online*
// algorithm-based fault tolerance (ABFT) scheme for FFT and the FT-FFTW
// implementation.
//
// The library computes forward and inverse DFTs of arbitrary size while
// detecting — and transparently correcting — soft errors that strike either
// the arithmetic (logic-unit faults) or data at rest (memory bit flips),
// at a measured cost of about 1.2× the unprotected transform with
// computational protection and about 1.3× with memory protection added, at
// 2^16 points on a two-core x86-64 box (core.overhead_online and
// core.overhead_online_memory from
// `bash ftbench/run.sh --workload local --trace 1`), instead of the ≥100%
// of double/triple modular redundancy.
//
// # One planner, one executor
//
// New is the single constructor: protection, geometry and parallelism
// compose as functional options, and every composition yields the same
// Transform interface —
//
//	tr, _ := ftfft.New(1<<20, ftfft.WithProtection(ftfft.OnlineABFTMemory))
//	report, err := tr.Forward(ctx, dst, src)    // verified output, or err
//
//	par, _ := ftfft.New(1<<18, ftfft.WithRanks(8),
//	    ftfft.WithProtection(ftfft.OnlineABFTMemory))  // §5 six-step, opt-FT-FFTW
//	img, _ := ftfft.New(rows*cols, ftfft.WithShape(rows, cols),
//	    ftfft.WithRanks(4))                            // 2-D over a 4-worker pool
//	vol, _ := ftfft.New(64*64*64, ftfft.WithDims(64, 64, 64),
//	    ftfft.WithProtection(ftfft.OnlineABFTMemory))  // protected 3-D volume
//
// Forward, Inverse and ForwardBatch run under the same protection: the
// inverse path uses the conjugation identity IDFT(x) = conj(DFT(conj(x)))/N
// so the entire ABFT machinery guards it too, and batches reuse the plan's
// pooled execution contexts with bit-identical results. The deprecated
// NewPlan / NewParallelPlan / NewPlan2D constructors remain as thin shims
// over the same executors.
//
// # Protection levels
//
// Protection ranges from None (a plain planned FFT, the library's FFTW
// stand-in) through the paper's offline scheme (verify once at the end,
// restart on error) to the online two-layer scheme (verify every
// sub-transform as it completes, recover in O(√N·log√N)), each in a naive
// and an optimized variant, with or without memory-fault protection.
// WithRanks runs the six-step in-place distributed algorithm of §5 on a
// simulated multi-rank communicator with checksummed transposes.
//
// Fault injection is a first-class citizen (WithInjector), so the
// resilience claims are testable rather than aspirational; see the examples
// and the experiments harness (cmd/ftexperiments), which regenerates every
// table and figure of the paper's evaluation.
//
// # Kernel architecture
//
// Beneath every protection scheme sits the planned FFT engine
// (internal/fft). Power-of-two sizes run a flat, iterative, cache-friendly
// kernel: one precomputed bit-reversal permutation, then radix-4
// decimation-in-time butterfly stages (with a single radix-2 fixup stage
// when log₂ n is odd) over per-stage twiddle tables, with no recursion and
// no per-call lookup. All other sizes run a recursive mixed-radix
// Cooley-Tukey walk with specialized butterflies for small radices, and
// sizes with prime factors beyond the butterfly set switch to Bluestein's
// chirp-z algorithm — whose convolution length is chosen by a stage-cost
// model over the sizes the kernels handle cheaply, not pinned to the next
// power of two. The immutable per-(size, direction) tables are served from a
// bounded process-wide cache, so many plans over a handful of sizes pay each
// table build once while process memory stays bounded. Kernel choice is made
// at plan time and never changes arithmetic guarantees: in-place and
// out-of-place execution of the flat kernel are bit-identical, and every
// kernel is validated against the O(n²) reference DFT.
//
// # Real-input transforms
//
// NewReal plans transforms of real-valued samples through the packed
// half-length trick: the n reals become an (n/2)-point complex vector
// z_t = x_{2t} + i·x_{2t+1}, ONE protected complex transform of half the
// length runs under the configured scheme, and an O(n) untangling recovers
// the stored half spectrum X_0..X_{n/2} (the upper half follows from
// conjugate symmetry and is not stored) —
//
//	rt, _ := ftfft.NewReal(1<<20, ftfft.WithProtection(ftfft.OnlineABFTMemory))
//	spec := make([]complex128, rt.SpectrumLen())       // n/2 + 1 bins
//	report, err := rt.Forward(ctx, spec, samples)      // RFFT
//	_, err = rt.Inverse(ctx, samples2, spec)           // IRFFT, 1/n scaled
//
// This roughly halves the work and memory traffic of transforming the same
// samples as zero-imaginary complex data. The inner complex transform
// carries the scheme's full ABFT machinery — every fault site is visited,
// verified and repaired exactly as in the complex path — and the
// deterministic pack/untangle steps add no new fault sites. Protection and
// tuning options compose as with New; geometry and parallelism options do
// not apply to the 1-D real path and are rejected at plan time.
//
// # N-dimensional transforms
//
// WithDims plans an N-D transform as a sequence of protected 1-D axis
// passes — the direct generalization of the paper's row-column
// decomposition, over one geometry engine for every rank k ≥ 1. Passes run
// innermost (contiguous) axis first; because every line of every pass runs
// under the configured protection, the online scheme's timely-detection
// property — an error is caught and repaired before the next pass consumes
// it — holds between axis passes exactly as it holds between the two ABFT
// layers inside each 1-D transform. Length-1 axes are identity passes and
// are skipped.
//
// Non-contiguous passes execute the protected schemes directly on strided
// lines (no per-line gather/scatter round trip), bit-identical to the
// gathered equivalent, and group memory-adjacent lines into cache-sized
// tiles; each tile is one bounded-executor task, so WithRanks(p) fans a
// pass out p wide without splitting adjacent lines across workers. Tiling,
// worker count and executor choice are pure scheduling: outputs are
// bit-identical across all of them, and bit-identical to the nested
// axis-wise reference. Inverse applies the conjugation identity per line,
// keeping every pass protected. Shape() remains as the 2-D compatibility
// view of Dims().
//
// # Distributed execution
//
// The six-step parallel transform is transport-pure: a rank body touches
// only its own preallocated workspace and its communicator endpoints, with
// input distributed by an explicit root-rank scatter and output collected by
// a gather (both checksum-protected). Which wire carries the messages is an
// option:
//
//	hub, _ := ftfft.ListenHub("unix", "/tmp/fft.sock", 4)   // rank 0 = this process
//	tr, _ := ftfft.New(1<<20, ftfft.WithRanks(4),
//	    ftfft.WithProtection(ftfft.OnlineABFTMemory),
//	    ftfft.WithTransport(hub))            // blocks until 3 workers dial in
//	defer hub.Close()                        // workers exit cleanly
//
// and each worker process (one rank apiece) is just
//
//	ftfft.ServeWorker(ctx, "unix", "/tmp/fft.sock")          // or: ftfft -worker -connect …
//
// Workers need no configuration: the connection handshake assigns the rank
// and ships the plan geometry and protection parameters, so every process
// provably runs the same scheme. On the wire, messages travel through a
// framed byte codec — tag/src/dst/length header, optional §5 block checksum
// pair, then the payload as little-endian IEEE-754 bit patterns — so a
// multi-process run is bit-for-bit identical to the in-process run, and the
// block checksums repair payloads corrupted on the wire itself (including
// below the codec: Hub.InjectWireFaults flips serialized bytes in flight).
// A rank failure or lost connection poisons every process's world instead of
// deadlocking it; the failed Transform's wire is then retired and later
// calls fail fast.
//
// Four wires carry the identical frames; they differ only in reach and in
// the cost of moving bytes. The default in-process chan wire grants the
// zero-copy scatter/gather fast path; MessageOnlyTransport(p) masks it to
// price (and pin) the explicit message path; ListenHub("unix"/"tcp", …)
// crosses process — and with tcp, host — boundaries through sockets, worker↔
// worker frames relaying through the hub; ListenShmHub(path, p) is the
// same-host wire: a memory-mapped ring file of p×p single-producer
// single-consumer rings, where a send serializes its frame directly into
// the destination ring and publishes it with one atomic store — no
// syscalls, no kernel copies, no hub relay — and workers dial by path with
// ServeWorker(ctx, "shm", path).
//
// ListenMeshHub upgrades the socket star to a mesh: the handshake hands
// each worker its peers' listen addresses, every worker pair establishes
// one direct connection (lower rank dials higher), and worker↔worker
// frames — the transpose exchanges at the heart of the six-step algorithm —
// go point-to-point instead of relaying through the hub:
//
//	    star                         mesh
//	      w1                          w1
//	     /                           /  |
//	hub — w2                   hub — w2 |
//	     \                           \  | \
//	      w3                          w3-'
//	w↔w frames: 2 hops         w↔w frames: direct; hub keeps
//	through the hub            scatter/gather, abort, goodbye
//
// The mesh is an optimization, never a requirement: peer dials are
// deadline-bound, and an unreachable or lost peer — or a worker started
// with DialWorkerNoMesh / -no-mesh — logs the reason and degrades that
// pair to the hub relay without aborting the world. WireStats reports
// frames and bytes moved direct vs relayed, live peer connections, and the
// deepest epoch overlap observed.
//
// ForwardBatch over any transport is epoch-pipelined: each data frame's
// header carries the epoch of the batch item it belongs to, ranks match
// frames to per-epoch mailboxes, and a ring of pooled per-epoch contexts
// keeps up to four transforms in flight over one world, windowed by the
// root executor's reserve backpressure (WithWorkers sizes the window).
// Results are reaped in order and are bit-identical to the unbatched loop
// on every wire, clean or under injected faults.
//
// Protected payloads carry their §5 checksum pair without a separate
// generation pass: the pair accumulates inside the serialization loop on
// send and inside the decode loop on receive (fused sweeps), and the fusion
// is bit-identical to running checksum generation as its own pass — same
// element order, same rounding — on the rank wire and the service wire
// alike.
//
// The shared-memory fast-path guarantee: without WithTransport, ranks run
// in-process over a channel wire that grants the SharedMemory capability,
// and rank bodies copy their slices of the caller's arrays directly instead
// of exchanging scatter/gather messages. The fast path is selected by
// transport capability, never assumed by the algorithm, and its outputs are
// bit-identical to the message path (MessageOnlyTransport masks the
// capability to prove exactly that).
//
// # Serving
//
// ListenServe runs the library as a long-lived spectral server: clients
// submit individual transforms over the framed byte codec and the server
// multiplexes them onto a bounded LRU plan cache (size × dims × protection ×
// real/complex) executed through the shared bounded pool, so bursts degrade
// by queueing rather than goroutine or plan-build explosion —
//
//	srv, _ := ftfft.ListenServe("unix", sock, ftfft.ServerConfig{PlanCache: 32})
//	defer srv.Shutdown(ctx)               // stop accepting, drain, close
//
//	c, _ := ftfft.Dial("unix", sock)      // safe for concurrent use; requests
//	defer c.Close()                       // pipeline over one connection
//	report, err := c.Forward(ctx, dst, src,
//	    ftfft.WithProtection(ftfft.OnlineABFTMemory))
//
// The client carries only what to compute — protection and geometry;
// execution options (WithRanks, WithWorkers, WithTransport, …) are the
// server's deployment decision and are rejected client-side. The
// repair-or-reject contract extends the ABFT over the client↔server wire:
// payloads are block-checksummed in both directions, a corrupted element is
// located and repaired on receipt (counted in the returned Report), and
// anything beyond repair capability — wire or transform — returns as an
// explicit error frame (ErrUncorrectable), never as a silently wrong
// spectrum. The service output is bit-for-bit identical to the local
// Transform's, clean and under injected faults. A draining server
// (Shutdown, or cmd/ftserve on SIGTERM) refuses new requests with
// ErrServerUnavailable while in-flight requests complete.
//
// # Cancellation
//
// Every executor method takes a context.Context. Sequential transforms
// observe cancellation at sub-FFT boundaries; parallel transforms
// additionally poison the in-flight communicator, so ranks parked in a
// transpose receive unwind immediately. The same poison-pill broadcast
// fires when a rank exhausts its retry budget: a persistent fault on one
// rank surfaces as ErrUncorrectable instead of deadlocking its peers. A
// canceled call returns ctx.Err() with dst in an unspecified state; the
// plan itself remains usable.
//
// # One bounded execution runtime
//
// Every concurrency mechanism in the library — simulated-MPI rank fan-out,
// N-D axis-pass tile dispatch, ForwardBatch item scheduling — runs on one
// shared bounded executor with a fixed worker budget (by default one
// process-wide pool sized to GOMAXPROCS; WithWorkers or WithExecutor select
// a private or shared budget per plan). Worker goroutines are spawned
// lazily, parked when idle, and reused across calls; communicating rank
// groups are admitted atomically in FIFO order, and independent task groups
// always make progress on the calling goroutine. The result is the
// goroutine-bound guarantee: M concurrent callers queue for admission
// instead of spawning M·ranks goroutines, so dispatch adds at most the
// worker budget plus a small constant to the process — provided WithRanks
// stays within the budget (an oversized rank gang runs its surplus on
// transient goroutines, since co-scheduling is a correctness requirement).
// Every task runs with panic containment and receives the caller's context.
// Executor choice never changes arithmetic: outputs are bit-identical
// across budgets.
//
// # Plan once, execute many
//
// Like FFTW, plans front-load all derived state: FFT sub-plans, twiddle
// tables, checksum weight vectors, the message-passing world and every
// per-rank workspace buffer are built at New time and reused by every
// transform. Steady-state sequential transforms perform zero allocations;
// parallel transforms allocate only the O(ranks) dispatch cost of one rank
// task group on pooled workers.
//
// # Autotuning and wisdom
//
// Several plan choices are made by analytic cost models that can miss on a
// given host. WithTuning(TuneMeasured) replaces them with FFTW-style
// measurement: at plan build — never during execution — New and NewReal time
// the legal candidates for each tunable choice and install the fastest:
//
//	kernel engine      flat vs recursive, power-of-two sub-plans only
//	Bluestein conv     the {1,3,5,9,15}·2^k ladder ≥ 2n−1 (ConvCandidates)
//	nd tile size       the BenchmarkTileSize ladder (nd.TileLadder)
//	ForwardBatch       epoch-pipelining window 1, 2 or 4 (or WithBatchWindow)
//
// Winners are recorded in a process-wide bounded wisdom table keyed by
// (knob, size, dims, scheme, real/complex): later builds of the same
// geometry hit the table and skip the sweeps, so a wisdom-hit plan build
// costs the same as the default. ExportWisdom serializes the table as a
// versioned, checksummed blob and ImportWisdom merges one back — the fleet
// workflow is tune once on a canary host, ship the file, import everywhere
// (cmd/ftfft -tune -wisdom writes it; cmd/ftserve -wisdom loads it).
//
// The determinism contract: wisdom stores *choices*, never timings, and
// every candidate computes a correct transform — so timing noise only ever
// picks which deterministic plan wins. Two plans built from the same wisdom
// make identical choices and produce bit-identical outputs, locally or
// served. A server applies wisdom on plan-cache misses but never measures
// inside a request, and its plan cache keys on the wisdom epoch, so an
// import rotates out plans tuned under the old table instead of mixing them.
//
// Migration: the default is TuneEstimate — the analytic heuristics,
// bit-identical to plans built before tuning existed. Nothing measures,
// nothing consults wisdom, unless a plan opts in.
//
// Transforms are safe for concurrent use by multiple goroutines.
// Workspaces are per-call: every executor keeps a pool of execution
// contexts, and each in-flight call draws its own, so concurrent calls on
// one plan never share mutable state. A parallel context is returned to
// the pool only after a clean transform; contexts that observed an
// uncorrectable fault or an abort are discarded rather than reused.
package ftfft
