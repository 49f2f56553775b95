// Package mpi is the message-passing substrate for the parallel FT-FFT
// scheme — the stand-in for MPI on TIANHE-2. Ranks are goroutines inside one
// process; point-to-point messages are copied through buffered channels with
// tag matching, so the semantics the paper's Algorithm 3 relies on hold:
//
//   - Isend returns after the payload is captured (buffered send);
//   - Irecv posts a receive that Wait completes, matching (source, tag);
//   - messages carry the two per-block checksums of §5 so receivers can
//     detect and repair single corrupted elements without retransmission;
//   - an optional fault.Injector corrupts payloads in transit
//     (fault.SiteMessage), emulating link soft errors;
//   - World.Abort is the poison-pill broadcast: a rank that fails
//     mid-collective poisons the world so every blocked receive and barrier
//     returns the abort cause instead of deadlocking — this is how a rank
//     that exhausts its retry budget surfaces as an error to its peers, and
//     how context cancellation reaches ranks parked in Recv.
//
// The runtime is deliberately simple but honest about data movement: every
// send copies its payload, as a NIC would. The copy lands in a pooled buffer
// that is recycled once the matching receive completes, so a World in steady
// state moves data without allocating.
//
// A World is built once and reused across any number of communication
// rounds (the plan-once/execute-many contract): endpoints are created at
// construction and Endpoint returns the same *Comm for a given rank every
// time. A Comm must only ever be used by one goroutine at a time.
//
// Rank bodies are launched as co-scheduled task groups on the shared bounded
// executor (internal/exec) via World.Launch, not as raw goroutines, so M
// concurrent transforms draw from one worker budget instead of spawning M·p
// goroutines. The wire itself sits behind the Transport interface. The
// default is the in-process channel matrix; the socket transports (wire.go,
// socket.go) carry the same tagged messages between OS processes through a
// byte-level framed codec, so the tag-matching, checksum, and abort machinery
// above the wire is identical either way. Optional capability interfaces on
// the transport (SharedMemory, RankPlacement, WorldBinder, WorldConfigurer,
// AbortPropagator) let the layers above choose fast paths — e.g. the
// in-process wire keeps zero-copy direct-slice scatter/gather — without the
// algorithm ever assuming shared memory.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"ftfft/internal/checksum"
	"ftfft/internal/exec"
	"ftfft/internal/fault"
)

// ErrAborted is returned from receives that were unblocked by a world abort
// when no more specific cause was recorded.
var ErrAborted = errors.New("mpi: world aborted")

// ErrShutdown is the abort cause recorded when the root process shuts a
// distributed world down cleanly (goodbye frame): worker serve loops treat it
// as a normal exit, not a failure.
var ErrShutdown = errors.New("mpi: world shut down")

// payload is a pooled message body. Boxing the slice keeps the sync.Pool
// round-trip allocation-free (the pool stores the same *payload forever).
type payload struct {
	data []complex128
}

// payloads is the process-wide message-body pool, shared by every world and
// transport so payloads can be recycled wherever a message terminates: at the
// matching receive (in-process delivery) or right after serialization (socket
// sends).
var payloads = sync.Pool{New: func() any { return new(payload) }}

// getPayload returns a pooled buffer holding exactly n elements.
func getPayload(n int) *payload {
	pb := payloads.Get().(*payload)
	if cap(pb.data) < n {
		pb.data = make([]complex128, n)
	}
	pb.data = pb.data[:n]
	return pb
}

// Message is one tagged payload in flight between two ranks. Data aliases a
// pooled buffer when the message originated in this process; transports must
// treat it as read-only and deliver messages from one source in send order.
type Message struct {
	Tag int
	// Epoch stamps the transform round the message belongs to, so several
	// rounds can be in flight on one world at once: receives match on
	// (src, tag, epoch), and the wire codec carries the epoch in the frame
	// header. Exactly one message exists per (src, dst, tag, epoch), which is
	// what makes the matching order-tolerant across path and round switches.
	Epoch uint32
	Data  []complex128
	CS    [2]complex128 // per-block checksums (D1, D2); zero when unused
	HasCS bool

	// pb is the pooled backing buffer, recycled when the matching receive
	// completes; nil for messages materialized by an external transport.
	pb *payload

	// raw, when non-nil, holds the message's count elements still in their
	// serialized wire form (count × 16 little-endian bytes): socket and
	// shared-memory read loops hand frames over undecoded, and the matching
	// receive decodes the bytes directly into its destination buffer
	// (decode-in-place) instead of materializing an intermediate complex128
	// slice. rb is the pooled byte buffer backing raw, recycled at the
	// receive like pb.
	raw   []byte
	count int
	rb    *wireBuf
}

// Transport moves tagged messages between ranks — the wire beneath the
// World. The in-process default is the buffered channel matrix
// (chanTransport); the socket transports carry the same messages between OS
// processes. Implementations must be safe for concurrent use by all ranks
// and must unblock any blocked operation when abort fires.
type Transport interface {
	// Send delivers m from src to dst, reporting false when the world
	// aborted before the message could be accepted.
	Send(dst, src int, m Message, abort <-chan struct{}) bool
	// Recv blocks until the next message from src to dst arrives, reporting
	// ok = false when abort fires first. Messages from one src must be
	// delivered in send order; tag matching happens above the transport.
	Recv(dst, src int, abort <-chan struct{}) (m Message, ok bool)
}

// SharedMemory is an optional Transport capability: a transport whose ranks
// all live in the caller's address space — and whose deliveries are exact
// copies — reports true, allowing the algorithm layer to expose caller
// slices directly to rank bodies (zero-copy scatter/gather) instead of
// exchanging root-rank messages. The fast path is chosen by this capability,
// never assumed.
type SharedMemory interface {
	SharedMemory() bool
}

// IsShared reports whether t grants the zero-copy shared-memory fast path.
func IsShared(t Transport) bool {
	s, ok := t.(SharedMemory)
	return ok && s.SharedMemory()
}

// RankPlacement is an optional Transport capability for wires spanning
// several OS processes: LocalRanks lists the ranks whose bodies run in this
// process. Transports without it are fully local (all ranks).
type RankPlacement interface {
	LocalRanks() []int
}

// PeerMesh is an optional Transport capability: a wire whose worker
// processes hold (or establish) direct point-to-point connections to each
// other reports true — worker↔worker frames travel one hop instead of
// relaying through the hub. The hub connection remains the control channel
// (abort, goodbye) and the per-pair relay fallback either way.
type PeerMesh interface {
	PeerMesh() bool
}

// IsMesh reports whether t grants direct worker↔worker delivery.
func IsMesh(t Transport) bool {
	m, ok := t.(PeerMesh)
	return ok && m.PeerMesh()
}

// InlineSerializer is an optional Transport capability: Send fully consumes
// the message payload before returning (serializing it onto the wire or into
// a ring), never retaining a reference. A World over such a wire skips the
// pooled defensive payload copy in Isend/IsendPair — the caller's slice is
// handed to Send directly — when no transit-fault injector is armed and the
// send is not a self-delivery (self-sends are queued, so they still copy).
type InlineSerializer interface {
	SerializesInline() bool
}

func isInline(t Transport) bool {
	s, ok := t.(InlineSerializer)
	return ok && s.SerializesInline()
}

// WireStats is a point-in-time snapshot of a transport's traffic counters,
// exposed by the socket and shared-memory wires so topology wins (mesh vs
// relay) are observable rather than inferred. Counters cover data frames
// only; control traffic is noise at steady state.
type WireStats struct {
	// FramesDirect / BytesDirect count data frames this process sent over a
	// direct connection (peer mesh conn, shm ring, or a hub-adjacent leg).
	FramesDirect int64
	BytesDirect  int64
	// FramesRelayed / BytesRelayed count data frames that took the two-hop
	// hub relay: on workers, frames sent via the hub conn for another worker;
	// on the hub, frames it forwarded between workers.
	FramesRelayed int64
	BytesRelayed  int64
	// PeerConns is the number of live direct peer connections (mesh wires).
	PeerConns int
	// MaxEpochsInFlight is the bound world's high-water mark of concurrently
	// active transform epochs (0 when no world is bound).
	MaxEpochsInFlight int
}

// WorldBinder is an optional Transport capability: Bind is called exactly
// once, when a World is built over the transport, handing it the world whose
// aborts and inboxes it must serve. Socket transports start their connection
// readers here.
type WorldBinder interface {
	Bind(w *World)
}

// WorldMeta is the job description a root process ships to remote workers
// during the connection handshake, so every process builds the identical
// plan: the global geometry plus the protection-scheme parameters.
type WorldMeta struct {
	N, P       int
	Protected  bool
	Optimized  bool
	EtaScale   float64
	MaxRetries int
}

// WorldConfigurer is an optional Transport capability: ConfigureWorld is
// called once at plan-build time with the job metadata. The hub transport
// completes the worker handshake here (it blocks until every worker has
// connected, then ships each one the metadata).
type WorldConfigurer interface {
	ConfigureWorld(meta WorldMeta) error
}

// AbortPropagator is an optional Transport capability: PropagateAbort
// broadcasts the world's poison pill to remote processes, so an abort in one
// process unwinds ranks parked in receives everywhere. It must be
// best-effort and non-blocking with respect to correctness — local abort has
// already happened when it is called.
type AbortPropagator interface {
	PropagateAbort(cause error)
}

// chanTransport is the default in-process wire: a p×p matrix of deeply
// buffered channels, so sends never block in this model.
type chanTransport struct {
	inbox [][]chan Message // inbox[dst][src]
}

// NewChanTransport creates the in-process channel-matrix wire for p ranks —
// the transport NewWorld uses by default. It grants the shared-memory fast
// path; wrap it in MessageOnly to force the explicit message-passing paths
// over the same wire.
func NewChanTransport(p int) Transport { return newChanTransport(p) }

func newChanTransport(p int) *chanTransport {
	t := &chanTransport{inbox: make([][]chan Message, p)}
	for dst := 0; dst < p; dst++ {
		t.inbox[dst] = make([]chan Message, p)
		for src := 0; src < p; src++ {
			t.inbox[dst][src] = make(chan Message, 64)
		}
	}
	return t
}

// SharedMemory grants the zero-copy direct-slice fast path: every rank of a
// chan world lives in the caller's address space.
func (t *chanTransport) SharedMemory() bool { return true }

// WorldSize returns the rank count the wire was built for, so plan
// construction can reject a geometry mismatch instead of indexing out of
// range at transform time.
func (t *chanTransport) WorldSize() int { return len(t.inbox) }

// messageOnly masks every capability of the wrapped transport, exposing only
// the raw Send/Recv wire: rank bodies must use explicit message exchanges.
// It exists so tests and benchmarks can prove the algorithm layer is
// transport-pure — bit-identical over the chan wire with the shared-memory
// fast path disabled.
type messageOnly struct {
	tr Transport
}

// MessageOnly wraps t, hiding its optional capabilities (shared memory,
// placement, binding). Intended for the in-process chan transport. The
// world-size safety check is not a capability and passes through.
func MessageOnly(t Transport) Transport { return &messageOnly{tr: t} }

func (t *messageOnly) Send(dst, src int, m Message, abort <-chan struct{}) bool {
	return t.tr.Send(dst, src, m, abort)
}

func (t *messageOnly) Recv(dst, src int, abort <-chan struct{}) (Message, bool) {
	return t.tr.Recv(dst, src, abort)
}

// WorldSize forwards the wrapped wire's rank count (0 = unknown): masking
// capabilities must not mask the construction-time geometry validation.
func (t *messageOnly) WorldSize() int {
	if ws, ok := t.tr.(interface{ WorldSize() int }); ok {
		return ws.WorldSize()
	}
	return 0
}

func (t *chanTransport) Send(dst, src int, m Message, abort <-chan struct{}) bool {
	select {
	case t.inbox[dst][src] <- m:
		return true
	case <-abort:
		return false
	}
}

func (t *chanTransport) Recv(dst, src int, abort <-chan struct{}) (Message, bool) {
	select {
	case m := <-t.inbox[dst][src]:
		return m, true
	case <-abort:
		return Message{}, false
	}
}

// World owns the endpoints of a p-rank communicator and the abort state
// layered over its Transport.
type World struct {
	p      int
	tr     Transport
	inj    fault.Injector
	local  []int // ranks whose bodies run in this process (placement capability)
	shared bool  // transport grants the shared-memory fast path
	inline bool  // transport serializes sends before returning (InlineSerializer)

	barrier   *barrier
	endpoints []*Comm

	// mail holds the per-(dst,src) matching state shared by every endpoint of
	// a rank: with epoch pipelining several Comms (one per in-flight epoch)
	// receive from the same transport stream, so unmatched messages are
	// parked centrally and waiters are woken on every deposit.
	mail []mailbox

	// Epoch accounting: how many transform epochs are live on this world
	// right now, and the high-water mark (surfaced through WireStats).
	epochMu    sync.Mutex
	epochsLive int
	epochsHigh int

	// Abort support: the poison-pill broadcast that turns a stuck
	// collective into an error. abortErr is written exactly once, before
	// done is closed, so any reader that observed the closed channel sees
	// the recorded cause.
	done      chan struct{}
	abortOnce sync.Once
	abortErr  error
}

// mailbox is one (dst, src) lane's unmatched-message queue. At most one
// goroutine pulls from the transport at a time (pulling); the rest wait on
// the condition variable and re-scan on every deposit, so a message pulled by
// one epoch's endpoint but destined for another is found without a second
// transport read racing the first.
type mailbox struct {
	mu      sync.Mutex
	cond    sync.Cond
	pending []Message
	pulling bool
}

// NewWorld creates a communicator with p ranks over the default in-process
// channel transport. inj, when non-nil, corrupts message payloads in transit.
func NewWorld(p int, inj fault.Injector) *World {
	return NewWorldTransport(p, inj, nil)
}

// NewWorldTransport creates a communicator over an explicit transport; a nil
// tr selects the in-process channel matrix. The transport's optional
// capabilities are resolved here: rank placement (which bodies this process
// runs), the shared-memory fast path, and world binding (socket transports
// start their readers once they know whose inboxes they feed).
func NewWorldTransport(p int, inj fault.Injector, tr Transport) *World {
	if p < 1 {
		panic("mpi: world size must be ≥ 1")
	}
	if tr == nil {
		tr = newChanTransport(p)
	}
	w := &World{p: p, tr: tr, inj: inj, done: make(chan struct{})}
	w.shared = IsShared(tr)
	w.inline = isInline(tr)
	if pl, ok := tr.(RankPlacement); ok {
		w.local = append([]int(nil), pl.LocalRanks()...)
	}
	if w.local == nil {
		w.local = make([]int, p)
		for r := range w.local {
			w.local[r] = r
		}
	}
	for _, r := range w.local {
		if r < 0 || r >= p {
			panic(fmt.Sprintf("mpi: local rank %d out of range [0,%d)", r, p))
		}
	}
	// The barrier is a local collective: it spans the ranks of this process.
	w.barrier = newBarrier(len(w.local))
	w.mail = make([]mailbox, p*p)
	for i := range w.mail {
		w.mail[i].cond.L = &w.mail[i].mu
	}
	w.endpoints = make([]*Comm, p)
	for r := 0; r < p; r++ {
		w.endpoints[r] = &Comm{w: w, rank: r}
	}
	if b, ok := tr.(WorldBinder); ok {
		b.Bind(w)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.p }

// LocalRanks returns the ranks whose bodies this process runs — all of them
// for an in-process world, this process's slice of a distributed one.
func (w *World) LocalRanks() []int { return w.local }

// Shared reports whether the transport grants the zero-copy shared-memory
// fast path (direct access to the caller's slices from rank bodies).
func (w *World) Shared() bool { return w.shared }

// Distributed reports whether some ranks of this world live in other
// processes.
func (w *World) Distributed() bool { return len(w.local) < w.p }

// Abort poisons the world: every blocked or future receive and barrier wait
// returns cause (ErrAborted when cause is nil) instead of waiting forever.
// The first cause wins; later calls are no-ops. A rank that fails
// mid-collective calls Abort so its peers unwind instead of deadlocking —
// the poison-pill broadcast the blocking substrate otherwise lacks.
func (w *World) Abort(cause error) {
	w.abortOnce.Do(func() {
		if cause == nil {
			cause = ErrAborted
		}
		w.abortErr = cause
		close(w.done)
		w.barrier.abort()
		// Distributed worlds broadcast the poison pill over the wire too, so
		// ranks in other processes unwind with the same cause.
		if ap, ok := w.tr.(AbortPropagator); ok {
			ap.PropagateAbort(cause)
		}
	})
}

// Done returns a channel closed when the world aborts (or shuts down):
// callers staging work outside a Comm operation select on it to unwind.
func (w *World) Done() <-chan struct{} { return w.done }

// Aborted reports whether the world has been poisoned.
func (w *World) Aborted() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// AbortCause returns the recorded abort cause, or nil if the world has not
// been aborted.
func (w *World) AbortCause() error {
	select {
	case <-w.done:
		return w.abortErr
	default:
		return nil
	}
}

// abortError returns the recorded cause; it must only be called after
// observing the closed done channel.
func (w *World) abortError() error { return w.abortErr }

// Comm is one rank's endpoint. A Comm must be used by a single goroutine —
// but several Comms for the same rank (one per in-flight epoch, see
// NewEndpoint) may operate concurrently: matching state lives on the World.
type Comm struct {
	w     *World
	rank  int
	epoch uint32 // stamp on sends, filter on receives; see SetEpoch
	// freeReqs recycles completed RecvRequests (single-goroutine freelist).
	freeReqs []*RecvRequest
}

// Rank returns this endpoint's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.w.p }

// SetEpoch pins the endpoint to a transform epoch: every subsequent send is
// stamped with e and every receive matches only messages stamped e. Epoch
// pipelining drivers call this once per round before launching rank bodies;
// endpoints left at the zero epoch interoperate with pre-epoch peers.
func (c *Comm) SetEpoch(e uint32) { c.epoch = e }

// Epoch returns the endpoint's current epoch stamp.
func (c *Comm) Epoch() uint32 { return c.epoch }

// Run launches body on p ranks of a fresh world as one executor task group
// and waits for all of them; the first error (lowest rank) is returned.
// Callers that transform repeatedly should instead hold a World and drive
// its persistent Endpoints through Launch.
func Run(p int, inj fault.Injector, body func(c *Comm) error) error {
	w := NewWorld(p, inj)
	l, err := w.Launch(context.Background(), nil, body)
	if err != nil {
		return err
	}
	return l.Wait()
}

// Launch is one in-flight rank fan-out: the executor gang running the rank
// bodies plus the context watcher that converts a cancellation into the
// world's poison-pill abort.
type Launch struct {
	g           *exec.Gang
	stop        chan struct{}
	watcherDone chan struct{}
}

// Launch runs body on every rank of the world that is local to this process,
// as one co-scheduled task group on ex (nil means the process-wide
// exec.Default()). The ranks are admitted atomically — never partially — so
// co-blocking rank bodies cannot deadlock against another caller's partial
// fan-out, and the pool's budget bounds the process-wide rank-goroutine
// count no matter how many callers contend. In a distributed world the
// remote ranks' bodies run in their own processes (their serve loops), so
// the gang here is only this process's slice.
//
// A rank body that returns an error poisons the world (the poison-pill
// broadcast, relayed over the wire for distributed worlds), so its peers
// unwind out of blocked receives and barriers; ctx cancellation fires the
// same abort. Launch returns once the group is admitted and started; join it
// with Wait. The only error returned here is a ctx cancellation during
// admission, with the world left untouched.
func (w *World) Launch(ctx context.Context, ex *exec.Pool, body func(c *Comm) error) (*Launch, error) {
	if ex == nil {
		ex = exec.Default()
	}
	res, err := ex.Reserve(ctx, len(w.local))
	if err != nil {
		return nil, err
	}
	return w.LaunchReserved(ctx, res, body), nil
}

// LaunchReserved is Launch on a pre-admitted executor reservation (which
// must have been made for exactly this world's local rank count). It never
// blocks: callers reserve first, then build or draw per-call state, then
// launch — so expensive state is never held while queueing for admission.
func (w *World) LaunchReserved(ctx context.Context, res *exec.Reservation, body func(c *Comm) error) *Launch {
	g := res.Launch(ctx, func(_ context.Context, i int) error {
		err := runRankBody(body, w.endpoints[w.local[i]])
		if err != nil {
			w.Abort(err)
		}
		return err
	})
	l := &Launch{g: g}
	if done := ctx.Done(); done != nil {
		l.stop = make(chan struct{})
		l.watcherDone = make(chan struct{})
		go func() {
			defer close(l.watcherDone)
			select {
			case <-done:
				w.Abort(ctx.Err())
			case <-l.stop:
			}
		}()
	}
	return l
}

// runRankBody invokes body with panic containment INSIDE the abort wrapper:
// a panicking rank must poison the world like any failing rank, or its peers
// would block in Recv forever while the executor's own containment (which
// sits outside this wrapper) quietly records the panic.
func runRankBody(body func(c *Comm) error, c *Comm) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mpi: rank %d: %w", c.Rank(),
				&exec.PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	return body(c)
}

// Lane is a reusable launch slot for a serve loop that re-runs the same rank
// fan-out round after round: the executor gang and every rank-body closure
// are prebuilt at construction, so a steady-state Launch/Wait round allocates
// nothing (PR 9's per-round Launch burned a gang, closures, and a watcher
// goroutine per epoch). A Lane is single-flight: Launch must not be called
// again until Wait returns. Lanes do not watch a context — serve loops that
// need cancellation install one WatchContext for the whole loop instead of
// one watcher per round.
type Lane struct {
	fg *exec.FixedGang
}

// NewLane prebuilds a reusable fan-out of body over this world's local ranks
// on ex (nil means exec.Default()). As with Launch, a rank body that fails or
// panics poisons the world so its peers unwind.
func (w *World) NewLane(ex *exec.Pool, body func(c *Comm) error) *Lane {
	if ex == nil {
		ex = exec.Default()
	}
	return &Lane{fg: ex.NewFixedGang(len(w.local), func(i int) error {
		err := runRankBody(body, w.endpoints[w.local[i]])
		if err != nil {
			w.Abort(err)
		}
		return err
	})}
}

// Launch starts one round on a pre-admitted reservation, which must have been
// made on the lane's pool for this world's local rank count. It never blocks;
// join the round with Wait.
func (ln *Lane) Launch(res *exec.Reservation) { ln.fg.LaunchReserved(res) }

// Wait joins the in-flight round and returns the lowest-rank error; the
// world's AbortCause usually carries the root failure when peers report abort
// echoes. The lane is reusable once Wait returns.
func (ln *Lane) Wait() error { return ln.fg.Wait() }

// WatchContext converts a cancellation of ctx into the world's poison-pill
// abort for as long as the watch is installed — the per-Launch watcher
// hoisted to once per serve loop. The returned stop func halts and joins the
// watcher (idempotent); call it before reusing the world under a different
// context, so a late cancel cannot poison a later round.
func (w *World) WatchContext(ctx context.Context) (stop func()) {
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		select {
		case <-done:
			w.Abort(ctx.Err())
		case <-quit:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-finished
		})
	}
}

// Wait joins the rank group and stops the cancellation watcher (joining it
// too, so a late cancel cannot poison a world after its reuse). It returns
// the lowest-rank error; the world's AbortCause usually carries the root
// failure when peers report abort echoes.
func (l *Launch) Wait() error {
	err := l.g.Wait()
	if l.stop != nil {
		close(l.stop)
		<-l.watcherDone
	}
	return err
}

// Endpoint returns rank r's Comm. Repeated calls return the same endpoint;
// the world-level matching state persists across communication rounds.
func (w *World) Endpoint(r int) *Comm {
	if r < 0 || r >= w.p {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.p))
	}
	return w.endpoints[r]
}

// NewEndpoint returns a fresh Comm for rank r, independent of the cached
// Endpoint(r) and of any other NewEndpoint comm. Distinct endpoints for one
// rank may run concurrently as long as each is pinned to its own epoch
// (SetEpoch): matching is per (src, tag, epoch) through the world's shared
// mailboxes, so rounds in flight simultaneously never steal each other's
// messages. This is what the epoch-pipelined execution ring is built from.
func (w *World) NewEndpoint(r int) *Comm {
	if r < 0 || r >= w.p {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.p))
	}
	return &Comm{w: w, rank: r}
}

// EpochBegin records a transform epoch going live on this world; EpochEnd
// retires it. The running count's high-water mark is surfaced through the
// transports' WireStats, making pipelining depth observable.
func (w *World) EpochBegin() {
	w.epochMu.Lock()
	w.epochsLive++
	if w.epochsLive > w.epochsHigh {
		w.epochsHigh = w.epochsLive
	}
	w.epochMu.Unlock()
}

// EpochEnd retires one live epoch recorded by EpochBegin.
func (w *World) EpochEnd() {
	w.epochMu.Lock()
	w.epochsLive--
	w.epochMu.Unlock()
}

// EpochHighWater returns the maximum number of epochs ever simultaneously
// live on this world.
func (w *World) EpochHighWater() int {
	w.epochMu.Lock()
	defer w.epochMu.Unlock()
	return w.epochsHigh
}

// recvMatch blocks until a message stamped (src → dst, tag, epoch) is
// available, reporting ok = false when the world aborts first. At most one
// goroutine per (dst, src) lane reads the transport at a time; others park on
// the lane's condition variable and re-scan the parked queue on every
// deposit, so a frame pulled by one epoch's endpoint reaches the endpoint
// actually waiting for it. Exactly one message exists per (src, dst, tag,
// epoch), so the matching is order-tolerant.
func (w *World) recvMatch(dst, src int, epoch uint32, tag int) (Message, bool) {
	mb := &w.mail[dst*w.p+src]
	mb.mu.Lock()
	for {
		q := mb.pending
		for i := range q {
			if q[i].Tag == tag && q[i].Epoch == epoch {
				m := q[i]
				// Clear the vacated tail slot: a stale copy there would keep
				// the message's pooled buffer reachable.
				last := len(q) - 1
				copy(q[i:], q[i+1:])
				q[last] = Message{}
				mb.pending = q[:last]
				mb.mu.Unlock()
				return m, true
			}
		}
		if mb.pulling {
			mb.cond.Wait()
			continue
		}
		mb.pulling = true
		mb.mu.Unlock()
		m, ok := w.tr.Recv(dst, src, w.done)
		mb.mu.Lock()
		mb.pulling = false
		if !ok {
			// Abort: wake every parked waiter; each will retry the pull and
			// observe the poisoned world immediately.
			mb.cond.Broadcast()
			mb.mu.Unlock()
			return Message{}, false
		}
		if m.Tag == tag && m.Epoch == epoch {
			mb.cond.Broadcast()
			mb.mu.Unlock()
			return m, true
		}
		mb.pending = append(mb.pending, m)
		mb.cond.Broadcast()
	}
}

// SendRequest tracks an in-flight send.
type SendRequest struct{ done bool }

// sendDone is the completed send: buffered sends finish inside Isend, so one
// immutable request serves every send without allocating.
var sendDone = &SendRequest{done: true}

// RecvRequest tracks a posted receive. Wait must be called exactly once per
// posted receive; after Wait returns, the request is recycled and must not
// be touched again.
type RecvRequest struct {
	c     *Comm
	src   int
	tag   int
	buf   []complex128
	w     []complex128 // fused §5 weights (IrecvPair); nil for plain receives
	cs    [2]complex128
	pair  checksum.Pair
	hasCS bool
	done  bool
}

// Isend sends len(data) elements of data to dst under tag, copying the
// payload into a pooled buffer (and letting the world's injector corrupt the
// copy in transit) before handing it to the transport. cs carries the
// optional block checksums.
//
// Over a transport that serializes inline (InlineSerializer), the pooled copy
// is skipped: the caller's slice rides straight into the wire encoder, which
// finishes with it before Send returns. The fast path is disabled when a
// transit-fault injector is armed (it must corrupt a copy, never the caller's
// memory) and for self-sends (queued locally, so the payload must outlive the
// call).
func (c *Comm) Isend(dst, tag int, data []complex128, cs *[2]complex128) *SendRequest {
	if c.w.inline && c.w.inj == nil && dst != c.rank {
		m := Message{Tag: tag, Epoch: c.epoch, Data: data}
		if cs != nil {
			m.CS = *cs
			m.HasCS = true
		}
		c.w.tr.Send(dst, c.rank, m, c.w.done)
		return sendDone
	}
	pb := getPayload(len(data))
	copy(pb.data, data)
	// The wire is where transit faults strike.
	fault.Visit(c.w.inj, fault.SiteMessage, c.rank, pb.data, len(pb.data), 1)
	m := Message{Tag: tag, Epoch: c.epoch, Data: pb.data, pb: pb}
	if cs != nil {
		m.CS = *cs
		m.HasCS = true
	}
	if !c.w.tr.Send(dst, c.rank, m, c.w.done) {
		// Aborted world: the receiver is unwinding, drop the payload.
		payloads.Put(pb)
	}
	return sendDone
}

// IsendPair is Isend with the §5 block-checksum pair generated during the
// payload capture — one fused pass over data produces both the wire copy and
// the checksums, instead of a checksum pair sweep followed by a copy. The
// index weight scales the real and imaginary parts of each term (the form of
// checksum.GatherPair), so the pair equals checksum.GeneratePair bit for bit
// on finite data, and the receiving sweep (IrecvPair) uses the same form;
// w must have len(data) weights. The pair is computed over the caller's
// data before the transit fault injector touches the copy, so a wire fault
// is detectable downstream. On the inline-serializing fast path (see Isend)
// the sweep is read-only: the checksums accumulate in the same order, and
// the wire encoder performs the only copy.
func (c *Comm) IsendPair(dst, tag int, data, w []complex128) *SendRequest {
	if c.w.inline && c.w.inj == nil && dst != c.rank {
		pr := elemPair(data, w)
		m := Message{Tag: tag, Epoch: c.epoch, Data: data, CS: [2]complex128{pr.D1, pr.D2}, HasCS: true}
		c.w.tr.Send(dst, c.rank, m, c.w.done)
		return sendDone
	}
	pb := getPayload(len(data))
	pr := checksum.GatherPair(pb.data, data, w, len(data), 1)
	fault.Visit(c.w.inj, fault.SiteMessage, c.rank, pb.data, len(pb.data), 1)
	m := Message{Tag: tag, Epoch: c.epoch, Data: pb.data, pb: pb, CS: [2]complex128{pr.D1, pr.D2}, HasCS: true}
	if !c.w.tr.Send(dst, c.rank, m, c.w.done) {
		payloads.Put(pb)
	}
	return sendDone
}

// Send is a blocking send (buffered, so it completes immediately).
func (c *Comm) Send(dst, tag int, data []complex128, cs *[2]complex128) {
	c.Isend(dst, tag, data, cs)
}

// Irecv posts a receive of exactly len(buf) elements from src under tag.
// Completion happens in Wait.
func (c *Comm) Irecv(src, tag int, buf []complex128) *RecvRequest {
	return c.IrecvPair(src, tag, buf, nil)
}

// IrecvPair is Irecv with a fused §5 verification sweep: completion computes
// the weighted checksum pair over the received elements during the single
// decode/copy pass, in IsendPair's form (bit-identical to
// checksum.GeneratePair(w, buf) over the completed buffer on finite data),
// so the receiver can compare it against the carried pair without a second
// pass over the payload. Join with WaitPair. w must have len(buf) weights;
// nil degrades to a plain Irecv.
func (c *Comm) IrecvPair(src, tag int, buf, w []complex128) *RecvRequest {
	var r *RecvRequest
	if k := len(c.freeReqs); k > 0 {
		r = c.freeReqs[k-1]
		c.freeReqs = c.freeReqs[:k-1]
	} else {
		r = new(RecvRequest)
	}
	*r = RecvRequest{c: c, src: src, tag: tag, buf: buf, w: w}
	return r
}

// complete lands the matched message in the receive buffer — decoding raw
// wire bytes directly into it (through a typed view of the pooled bytes on a
// little-endian host), or copying an in-process payload — fused, when the
// receive posted weights, with the §5 pair generation over the received
// elements. The pooled backing buffer (bytes or complex128s) is recycled,
// the request returns to the freelist, and the carried checksums are
// recorded.
func (r *RecvRequest) complete(m Message) {
	if m.raw != nil {
		n := min(len(r.buf), m.count)
		if r.w != nil && n == len(r.buf) {
			r.pair = getElems(r.buf, m.raw, r.w)
		} else {
			getElems(r.buf[:n], m.raw, nil)
			r.pair = elemPair(r.buf, r.w)
		}
		putWireBuf(m.rb)
	} else {
		if r.w != nil && len(m.Data) >= len(r.buf) {
			r.pair = checksum.GatherPair(r.buf, m.Data, r.w, len(r.buf), 1)
		} else {
			copy(r.buf, m.Data)
			r.pair = elemPair(r.buf, r.w)
		}
		if m.pb != nil {
			payloads.Put(m.pb)
		}
	}
	r.cs, r.hasCS, r.done = m.CS, m.HasCS, true
	r.c.freeReqs = append(r.c.freeReqs, r)
}

// Wait completes the receive, returning the sender's block checksums (if
// any). It blocks until a matching message arrives or the world is aborted,
// in which case the abort cause is returned and the receive buffer is left
// untouched. Wait must be called at most once per posted receive: completion
// returns the request to the endpoint's freelist for reuse by a later Irecv.
func (r *RecvRequest) Wait() (cs [2]complex128, hasCS bool, err error) {
	cs, hasCS, _, err = r.WaitPair()
	return cs, hasCS, err
}

// WaitPair is Wait, additionally returning the locally computed §5 pair of a
// receive posted with IrecvPair (the fused verification sweep). The pair is
// meaningful only on a successful completion of a weighted receive; plain
// Irecv receives return a zero pair.
func (r *RecvRequest) WaitPair() (cs [2]complex128, hasCS bool, pair checksum.Pair, err error) {
	if r.done {
		return r.cs, r.hasCS, r.pair, nil
	}
	c := r.c
	m, ok := c.w.recvMatch(c.rank, r.src, c.epoch, r.tag)
	if !ok {
		// Drain-then-abort would race the sender; the abort cause
		// already carries the root failure, so just unwind. The
		// request is recycled like a completed one.
		err := c.w.abortError()
		r.done = true
		c.freeReqs = append(c.freeReqs, r)
		return cs, false, pair, err
	}
	r.complete(m)
	return r.cs, r.hasCS, r.pair, nil
}

// Recv is a blocking receive. It returns the abort cause if the world is
// poisoned while waiting.
func (c *Comm) Recv(src, tag int, buf []complex128) (cs [2]complex128, hasCS bool, err error) {
	return c.Irecv(src, tag, buf).Wait()
}

// Barrier blocks until every rank has entered it (or the world is aborted,
// in which case the abort cause is returned).
func (c *Comm) Barrier() error {
	if c.w.barrier.await() {
		return nil
	}
	return c.w.abortError()
}

// barrier is a reusable p-party barrier.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	p       int
	count   int
	phase   int
	aborted bool
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await returns true on a normal barrier release, false on abort.
func (b *barrier) await() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return false
	}
	phase := b.phase
	b.count++
	if b.count == b.p {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return true
	}
	for phase == b.phase && !b.aborted {
		b.cond.Wait()
	}
	return !b.aborted
}

// abort releases every waiter with failure.
func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// TransposeSchedule returns the order in which rank visits its peers during
// an all-to-all: for power-of-two p the XOR pairing (every step is a
// disjoint pairing, the classic contention-free schedule), otherwise the
// cyclic shift (rank+i) mod p.
func TransposeSchedule(rank, p int) []int {
	sched := make([]int, p)
	if p&(p-1) == 0 {
		for i := 0; i < p; i++ {
			sched[i] = rank ^ i
		}
		return sched
	}
	for i := 0; i < p; i++ {
		sched[i] = (rank + i) % p
	}
	return sched
}
