// socket.go implements the multi-process wire: a hub-and-spoke socket
// transport (Unix-domain by default, TCP optionally) carrying the framed
// codec of wire.go, optionally upgraded to a full worker mesh.
//
// Topology: the root process listens (HubTransport, rank 0); each worker
// process dials in (WorkerTransport, one rank per process, assigned in
// connection order). Under ListenHub, worker↔worker messages relay through
// the hub at the byte level — the hub forwards the serialized frame without
// decoding the payload. Under ListenMeshHub, each worker opens its own peer
// listener and advertises it in the hello; once the handshake completes the
// hub hands every worker the full address list (framePeers) and workers dial
// each other directly — deterministically, lower rank dials higher, so
// exactly one connection exists per pair — and worker↔worker data frames go
// point-to-point. The hub connection remains the control channel (abort,
// goodbye) and the per-pair fallback: a peer that cannot be dialed within
// meshDialTimeout, or whose connection later dies, degrades that pair to the
// hub relay with a logged note instead of failing the world.
//
// Lifecycle and failure:
//
//   - handshake: worker sends a hello frame (protocol magic); the hub
//     responds — once the plan is built and ConfigureWorld runs — with a
//     config frame carrying the worker's rank and the WorldMeta, so every
//     process constructs the identical plan.
//   - abort: a world abort in any process broadcasts an abort frame; the hub
//     relays worker-originated aborts to the other workers. A lost
//     connection aborts the world with the connection error. Either way,
//     every rank parked in a receive unwinds with a cause instead of
//     deadlocking — the in-process poison-pill contract, extended over the
//     wire.
//   - shutdown: Hub.Close sends a goodbye frame; workers record ErrShutdown
//     so serve loops exit cleanly.
//
// Fault injection: InjectWireFaults installs a hook that may mutate the
// serialized payload bytes of outgoing data frames — soft errors on the wire
// itself, below the codec, which the §5 block checksums must detect and
// repair on receipt.
package mpi

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// WireFault may corrupt the serialized payload of an outgoing data frame:
// payload is the count×16-byte little-endian element region (checksums and
// header excluded), epoch the frame's transform round (0 outside pipelined
// batches). Install with InjectWireFaults.
type WireFault func(dst, src, tag, epoch int, payload []byte)

// handshakeTimeout bounds the accept/hello/config exchange; a worker that
// never completes its handshake fails the hub instead of hanging it forever.
const handshakeTimeout = 120 * time.Second

// dialRetryInterval paces DialWorker's connection attempts while the hub's
// listener is not up yet.
const dialRetryInterval = 25 * time.Millisecond

// meshDialTimeout bounds one worker's dial + peer-hello exchange to another
// worker's advertised listener, the same way abort/goodbye writes are
// bounded: an unreachable or black-holed peer address costs at most this long
// before the pair degrades to the hub relay. A var so tests can shorten it.
var meshDialTimeout = 5 * time.Second

// meshLogf reports mesh degradations (unreachable peer, lost peer conn) —
// the world keeps running over the relay, so these are log lines, not
// errors. Swappable for tests.
var meshLogf = log.Printf

// meshSockSeq disambiguates per-process Unix peer-listener socket paths when
// several workers share one process (in-process benches and tests).
var meshSockSeq atomic.Uint32

// wireCounters aggregates a transport's data-frame traffic. Direct frames
// went over a single-hop connection (hub↔worker leg, or a worker↔worker mesh
// conn); relayed frames took — or, on the hub, were forwarded along — the
// two-hop worker↔hub↔worker path. Snapshot with WireStats.
type wireCounters struct {
	framesDirect, bytesDirect   atomic.Int64
	framesRelayed, bytesRelayed atomic.Int64
}

func (c *wireCounters) add(direct bool, frameBytes int) {
	if direct {
		c.framesDirect.Add(1)
		c.bytesDirect.Add(int64(frameBytes))
	} else {
		c.framesRelayed.Add(1)
		c.bytesRelayed.Add(int64(frameBytes))
	}
}

func (c *wireCounters) snapshot() WireStats {
	return WireStats{
		FramesDirect:  c.framesDirect.Load(),
		BytesDirect:   c.bytesDirect.Load(),
		FramesRelayed: c.framesRelayed.Load(),
		BytesRelayed:  c.bytesRelayed.Load(),
	}
}

// dataFrameBytes is the on-wire size of a data frame carrying m.
func dataFrameBytes(m Message) int {
	n := frameHeaderLen + len(m.Data)*elemLen
	if m.HasCS {
		n += checksumLen
	}
	return n
}

// teardownFlushTimeout bounds the abort/goodbye writes (and, transitively,
// any in-flight data write wedged on a dead peer's full socket buffer —
// setting the deadline forces it to error out and release the write mutex).
// Without it, a frozen worker could block PropagateAbort or Hub.Close
// forever, violating the "abort unblocks everything" contract.
const teardownFlushTimeout = 5 * time.Second

// wireConn is one framed socket: mutex-serialized writes with a
// connection-owned encode buffer, so concurrent senders interleave whole
// frames and steady-state sends allocate nothing. Data frames go out as
// vectored writes — header+checksums in a small fixed prefix, the element
// payload straight from the sender's slice (or a pooled copy; see
// writeData), handed to the kernel as one writev — so the payload is never
// copied to coalesce it with the header.
// The buffered reader is owned by the connection too — handshake and read
// loop must share it, or bytes buffered by one would be invisible to the
// other.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	mu   sync.Mutex
	enc  []byte
	pre  [frameHeaderLen + checksumLen]byte
	vec  [2][]byte
	bufs net.Buffers
}

func newWireConn(c net.Conn) *wireConn {
	return &wireConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

// writeData encodes and writes m as one data frame, applying wf (if any) to
// the serialized payload region first. Header and checksums are encoded into
// the fixed prefix and go down with the payload in a single vectored write.
// On a little-endian host with no hook armed the payload is m.Data's own
// memory — its wire encoding — so the elements are written straight from the
// sender's slice. Otherwise they are encoded into a pooled buffer first; a
// hook therefore only ever corrupts a private copy.
func (wc *wireConn) writeData(dst, src int, m Message, wf WireFault) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	h := frameHeader{typ: frameData, tag: m.Tag, src: src, dst: dst, count: len(m.Data), epoch: m.Epoch}
	pre := wc.pre[:frameHeaderLen]
	if m.HasCS {
		h.flags = flagHasCS
		pre = wc.pre[:frameHeaderLen+checksumLen]
		putComplex(pre, frameHeaderLen, m.CS[0])
		putComplex(pre, frameHeaderLen+elemLen, m.CS[1])
	}
	putHeader(pre, h)
	if nativeLE && wf == nil {
		return wc.writeVectored(pre, elemBytes(m.Data))
	}
	// The payload slab comes from the shared size-classed pool rather than a
	// per-connection buffer: connections that once carried a large frame no
	// longer pin a max-sized slab forever (the BENCH_PR7 bytes_per_op creep),
	// and idle slabs are reclaimable by the GC through sync.Pool.
	rb := getWireBuf(len(m.Data) * elemLen)
	payload := rb.data
	putElems(payload, m.Data, nil)
	if wf != nil && len(payload) > 0 {
		wf(dst, src, m.Tag, int(m.Epoch), payload)
	}
	err := wc.writeVectored(pre, payload)
	putWireBuf(rb)
	return err
}

// writeVectored sends prefix+payload as one writev syscall, bypassing the
// buffered writer — safe because every write path flushes before releasing
// the connection mutex, so bw is always empty here. WriteTo consumes the
// net.Buffers slice by advancing its pointer, so the slice header is rebuilt
// from the connection-owned backing array each call — the steady-state send
// path stays allocation-free.
func (wc *wireConn) writeVectored(pre, payload []byte) error {
	wc.vec[0], wc.vec[1] = pre, payload
	wc.bufs = net.Buffers(wc.vec[:])
	_, err := wc.bufs.WriteTo(wc.c)
	wc.vec[0], wc.vec[1] = nil, nil
	return err
}

// writeControl writes one control frame.
func (wc *wireConn) writeControl(typ byte, payload []byte) error {
	return wc.writeControlFrom(typ, 0, payload)
}

// writeControlFrom writes one control frame with an explicit src rank —
// the peer-hello exchange identifies the sending worker through it.
func (wc *wireConn) writeControlFrom(typ byte, src int, payload []byte) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	total := frameHeaderLen + len(payload)
	if cap(wc.enc) < total {
		wc.enc = make([]byte, total)
	}
	wc.enc = wc.enc[:total]
	putHeader(wc.enc, frameHeader{typ: typ, src: src, count: len(payload)})
	copy(wc.enc[frameHeaderLen:], payload)
	if _, err := wc.bw.Write(wc.enc); err != nil {
		return err
	}
	return wc.bw.Flush()
}

// writeRaw relays an already-serialized frame (header + body) verbatim, as
// one vectored write (the relay hot path: worker↔worker frames through the
// hub are forwarded without a coalescing copy).
func (wc *wireConn) writeRaw(hdr, body []byte) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.writeVectored(hdr, body)
}

// RemoteAbortError is an abort cause relayed over the wire from another
// process; Msg is the originating process's rendered error.
type RemoteAbortError struct{ Msg string }

func (e *RemoteAbortError) Error() string { return "mpi: remote abort: " + e.Msg }

// HubTransport is the root process's side of the socket wire: rank 0 lives
// here, ranks 1..p-1 are worker processes dialed in through the listener.
type HubTransport struct {
	p        int
	ln       net.Listener
	conns    []*wireConn    // by worker rank; conns[0] is nil (the hub itself)
	inbox    []chan Message // local rank 0's inbox, indexed by src
	maxElems int

	// mesh marks a hub opened with ListenMeshHub: the handshake collects each
	// worker's advertised peer-listener address and broadcasts the list, so
	// workers dial each other directly. peerAddrOverride is a test hook that
	// rewrites an advertised address before broadcast (black-hole tests).
	mesh             bool
	peerAddrs        []string // by worker rank; "" = worker did not advertise
	peerAddrOverride func(rank int, addr string) string

	stats wireCounters

	w         *World
	accepted  bool
	started   bool
	wfMu      sync.Mutex
	wireFault WireFault
	remote    atomic.Bool // the poison pill arrived over the wire
	closing   atomic.Bool // deliberate shutdown: connection losses are expected
	closeOnce sync.Once
}

// ListenHub opens the root side of a p-rank socket world on network
// ("unix" or "tcp") and addr. It returns immediately; the p-1 worker
// connections are accepted when the plan built over this transport runs its
// handshake (ConfigureWorld). Use Addr to recover the bound address (useful
// with "tcp" and a ":0" listen address).
func ListenHub(network, addr string, p int) (*HubTransport, error) {
	if p < 2 {
		return nil, fmt.Errorf("mpi: a socket world needs at least 2 ranks, got %d", p)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: listen %s %s: %w", network, addr, err)
	}
	t := &HubTransport{p: p, ln: ln, conns: make([]*wireConn, p), peerAddrs: make([]string, p)}
	t.inbox = newInboxRow(p)
	return t, nil
}

// ListenMeshHub is ListenHub with the worker mesh enabled: the handshake
// hands every worker its peers' advertised listen addresses, workers dial
// each other directly (lower rank dials higher — exactly one connection per
// pair), and worker↔worker data frames skip the hub relay. Workers that
// advertise no listener, or whose peers prove unreachable within the dial
// deadline, fall back to the relay per pair; the hub connection stays the
// abort/goodbye control channel regardless.
func ListenMeshHub(network, addr string, p int) (*HubTransport, error) {
	t, err := ListenHub(network, addr, p)
	if err != nil {
		return nil, err
	}
	t.mesh = true
	return t, nil
}

// newInboxRow builds one local rank's inbox: a channel per source rank.
// Socket transports host exactly one rank per process, so a single row —
// not a p×p matrix — is all the process can ever receive into.
func newInboxRow(p int) []chan Message {
	inbox := make([]chan Message, p)
	for src := 0; src < p; src++ {
		inbox[src] = make(chan Message, 64)
	}
	return inbox
}

// Addr returns the listener's bound address.
func (t *HubTransport) Addr() net.Addr { return t.ln.Addr() }

// WorldSize returns the number of ranks the hub was opened for.
func (t *HubTransport) WorldSize() int { return t.p }

// LocalRanks implements RankPlacement: the hub hosts rank 0.
func (t *HubTransport) LocalRanks() []int { return []int{0} }

// Bind implements WorldBinder.
func (t *HubTransport) Bind(w *World) { t.w = w }

// InjectWireFaults installs a hook over outgoing serialized payloads — the
// wire-level fault site. A nil hook removes it.
func (t *HubTransport) InjectWireFaults(f WireFault) {
	t.wfMu.Lock()
	t.wireFault = f
	t.wfMu.Unlock()
}

func (t *HubTransport) getWireFault() WireFault {
	t.wfMu.Lock()
	defer t.wfMu.Unlock()
	return t.wireFault
}

// ConfigureWorld completes the handshake: it accepts the p-1 worker
// connections (bounded by handshakeTimeout), assigns ranks in connection
// order, ships each worker its rank and the job metadata, and starts the
// connection readers. Called once, at plan-build time.
func (t *HubTransport) ConfigureWorld(meta WorldMeta) error {
	if t.w == nil {
		return fmt.Errorf("mpi: hub transport not bound to a world")
	}
	if meta.P != t.p {
		return fmt.Errorf("mpi: plan has %d ranks but the hub was opened for %d", meta.P, t.p)
	}
	if t.started {
		return fmt.Errorf("mpi: hub transport already configured (one world per transport)")
	}
	if err := t.acceptWorkers(); err != nil {
		return err
	}
	cfgDone := time.Now().Add(handshakeTimeout)
	for r := 1; r < t.p; r++ {
		wc := t.conns[r]
		wc.c.SetWriteDeadline(cfgDone)
		if err := wc.writeControl(frameConfig, encodeConfig(r, meta)); err != nil {
			return fmt.Errorf("mpi: configuring worker rank %d: %w", r, err)
		}
		wc.c.SetWriteDeadline(time.Time{})
	}
	if t.mesh {
		peers := t.encodePeerList()
		for r := 1; r < t.p; r++ {
			wc := t.conns[r]
			wc.c.SetWriteDeadline(cfgDone)
			if err := wc.writeControl(framePeers, peers); err != nil {
				return fmt.Errorf("mpi: sending peer list to rank %d: %w", r, err)
			}
			wc.c.SetWriteDeadline(time.Time{})
		}
	}
	t.maxElems = meta.N
	t.started = true
	for r := 1; r < t.p; r++ {
		go t.readLoop(r)
	}
	return nil
}

// encodePeerList renders the advertised worker listener addresses as the
// framePeers payload: one "rank addr\n" line per advertising worker. Workers
// that sent a bare hello are simply absent — their pairs stay on the relay.
func (t *HubTransport) encodePeerList() []byte {
	var b strings.Builder
	for r := 1; r < t.p; r++ {
		addr := t.peerAddrs[r]
		if t.peerAddrOverride != nil {
			addr = t.peerAddrOverride(r, addr)
		}
		if addr == "" {
			continue
		}
		b.WriteString(strconv.Itoa(r))
		b.WriteByte(' ')
		b.WriteString(addr)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// acceptWorkers accepts and hello-validates the p-1 worker connections.
func (t *HubTransport) acceptWorkers() error {
	if t.accepted {
		return nil
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := t.ln.(deadliner); ok {
		d.SetDeadline(time.Now().Add(handshakeTimeout))
		defer d.SetDeadline(time.Time{})
	}
	for r := 1; r < t.p; r++ {
		c, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: accepting worker %d/%d: %w", r, t.p-1, err)
		}
		wc := newWireConn(c)
		c.SetReadDeadline(time.Now().Add(handshakeTimeout))
		h, body, err := readFrame(wc.br, nil, t.p, 0)
		// The hello is the magic alone (relay-only worker) or the magic, a
		// NUL, and the worker's advertised peer-listener address.
		if err != nil || h.typ != frameHello || !bytes.HasPrefix(body, []byte(wireMagic)) {
			c.Close()
			return fmt.Errorf("mpi: worker %d handshake failed (type %d, %q): %v", r, h.typ, body, err)
		}
		if rest := body[len(wireMagic):]; len(rest) > 1 && rest[0] == 0 {
			t.peerAddrs[r] = string(rest[1:])
		} else if len(rest) != 0 {
			c.Close()
			return fmt.Errorf("mpi: worker %d handshake failed: malformed hello %q", r, body)
		}
		c.SetReadDeadline(time.Time{})
		t.conns[r] = wc
	}
	t.accepted = true
	return nil
}

// readLoop drains one worker connection: local deliveries carry the frame's
// serialized element bytes into the inbox in a pooled buffer (decoded into
// the posted receive buffer by RecvRequest — decode-in-place), frames for
// other workers relay verbatim, aborts poison the world.
func (t *HubTransport) readLoop(src int) {
	r := t.conns[src].br
	var body []byte
	hdr := make([]byte, frameHeaderLen)
	for {
		h, err := readHeader(r, hdr, t.p, t.maxElems)
		if err != nil {
			t.connLost(src, err)
			return
		}
		if h.typ == frameData && h.dst == 0 {
			if h.src != src {
				t.connLost(src, fmt.Errorf("mpi: worker %d forged src %d", src, h.src))
				return
			}
			m, err := readDataBody(r, h)
			if err != nil {
				t.connLost(src, err)
				return
			}
			if !deliver(t.inbox[h.src], m, t.w.done) {
				putWireBuf(m.rb)
				return
			}
			continue
		}
		b, err := readBody(r, body, h)
		body = b
		if err != nil {
			t.connLost(src, err)
			return
		}
		switch h.typ {
		case frameData:
			if h.src != src {
				t.connLost(src, fmt.Errorf("mpi: worker %d forged src %d", src, h.src))
				return
			}
			if t.conns[h.dst] != nil {
				var hdr [frameHeaderLen]byte
				putHeader(hdr[:], h)
				// Counted before the write: once the frame is out, its
				// receiver may read WireStats, and the count must show it.
				t.stats.add(false, frameHeaderLen+len(body))
				if err := t.conns[h.dst].writeRaw(hdr[:], body); err != nil {
					t.connLost(h.dst, err)
					return
				}
			}
		case frameAbort:
			t.remote.Store(true)
			cause := &RemoteAbortError{Msg: string(body)}
			// Relay the pill to the other workers before poisoning locally
			// (Abort's propagation is suppressed for wire-originated pills).
			for r2 := 1; r2 < t.p; r2++ {
				if r2 != src && t.conns[r2] != nil {
					t.conns[r2].writeControl(frameAbort, body)
				}
			}
			t.w.Abort(cause)
			return
		default:
			// Goodbye/hello/config frames are meaningless from a worker.
		}
	}
}

// connLost poisons the world when a connection dies mid-run; a loss after
// abort or a deliberate Close is the expected teardown and stays quiet.
func (t *HubTransport) connLost(rank int, err error) {
	if t.closing.Load() || t.w.Aborted() {
		return
	}
	t.w.Abort(fmt.Errorf("mpi: connection to rank %d lost: %w", rank, err))
}

// deliver pushes m into an inbox channel, giving up when the world aborts.
// On false the payload ownership stays with the caller (Isend recycles what
// a transport reports undelivered; readLoops recycle what they decoded).
func deliver(ch chan Message, m Message, abort <-chan struct{}) bool {
	select {
	case ch <- m:
		return true
	case <-abort:
		return false
	}
}

// Send implements Transport: rank-0 loopback lands in the inbox; anything
// else is serialized onto the worker's socket. The pooled payload is
// recycled only on success (the bytes are the copy then) — a false return
// leaves ownership with the caller, per the Transport contract.
func (t *HubTransport) Send(dst, src int, m Message, abort <-chan struct{}) bool {
	if dst == 0 {
		return deliver(t.inbox[src], m, abort)
	}
	select {
	case <-abort:
		return false
	default:
	}
	if err := t.conns[dst].writeData(dst, src, m, t.getWireFault()); err != nil {
		t.connLost(dst, err)
		return false
	}
	t.stats.add(true, dataFrameBytes(m))
	if m.pb != nil {
		payloads.Put(m.pb)
	}
	return true
}

// Recv implements Transport for the hub's local rank (dst is always 0).
func (t *HubTransport) Recv(dst, src int, abort <-chan struct{}) (Message, bool) {
	select {
	case m := <-t.inbox[src]:
		return m, true
	case <-abort:
		return Message{}, false
	}
}

// SerializesInline implements InlineSerializer: a send's payload is fully
// encoded onto the socket before Send returns, so worlds over this wire skip
// the pooled defensive copy.
func (t *HubTransport) SerializesInline() bool { return true }

// PeerMesh reports whether this hub was opened with ListenMeshHub.
func (t *HubTransport) PeerMesh() bool { return t.mesh }

// WireStats snapshots the hub's traffic counters: direct frames are rank 0's
// own sends to workers, relayed frames the worker↔worker traffic it
// forwarded (zero in steady state once a mesh is fully established).
func (t *HubTransport) WireStats() WireStats {
	s := t.stats.snapshot()
	if t.w != nil {
		s.MaxEpochsInFlight = t.w.EpochHighWater()
	}
	return s
}

// PropagateAbort implements AbortPropagator: broadcast the pill to every
// worker, unless it arrived from the wire (the originator already did).
// The writes are deadline-bounded — a worker wedged with a full socket
// buffer must not be able to block the abort (the deadline also errors out
// any data write currently stuck on that conn, releasing its mutex); a
// worker the pill cannot reach sees the connection error instead.
func (t *HubTransport) PropagateAbort(cause error) {
	if t.remote.Load() {
		return
	}
	payload := []byte(cause.Error())
	deadline := time.Now().Add(teardownFlushTimeout)
	for r := 1; r < t.p; r++ {
		if t.conns[r] != nil {
			t.conns[r].c.SetWriteDeadline(deadline)
			t.conns[r].writeControl(frameAbort, payload)
		}
	}
}

// Close shuts the world down cleanly: a goodbye frame tells each worker's
// serve loop to exit, then the sockets and listener close, and the bound
// world (if any) is poisoned with ErrShutdown — a Close racing an in-flight
// transform unwinds the root rank out of its receives instead of leaving it
// parked forever. Idempotent.
func (t *HubTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closing.Store(true)
		t.remote.Store(true) // suppress the abort broadcast: goodbye is the signal
		deadline := time.Now().Add(teardownFlushTimeout)
		for r := 1; r < t.p; r++ {
			if t.conns[r] != nil {
				// The deadline bounds the goodbye AND forces out any write
				// wedged on this conn (releasing its mutex), so Close cannot
				// hang behind a dead worker.
				t.conns[r].c.SetWriteDeadline(deadline)
				t.conns[r].writeControl(frameGoodbye, nil)
				t.conns[r].c.Close()
			}
		}
		t.ln.Close()
		if t.w != nil {
			t.w.Abort(ErrShutdown)
		}
	})
	return nil
}

// WorkerTransport is one worker process's side of the socket wire: exactly
// one rank lives here, with a connection to the hub that carries control
// traffic and any message without a better route. Under a mesh hub the
// worker additionally owns a peer listener and direct connections to its
// peers; worker↔worker data frames prefer those and fall back to the hub
// relay per pair.
type WorkerTransport struct {
	p, rank  int
	wc       *wireConn
	inbox    []chan Message // this rank's inbox, indexed by src
	maxElems int
	network  string

	// meshLn is this worker's peer listener (nil when mesh participation is
	// disabled); peers[s] holds the direct connection to worker s, nil while
	// unestablished or after a fallback to the relay.
	meshLn net.Listener
	peers  []atomic.Pointer[wireConn]

	stats wireCounters

	w         *World
	wfMu      sync.Mutex
	wireFault WireFault
	remote    atomic.Bool
	shutdown  atomic.Bool
	closing   atomic.Bool
	closeOnce sync.Once
}

// DialWorker connects to a hub at network/addr, retrying while the listener
// comes up (bounded by handshakeTimeout), and completes the handshake: it
// sends the protocol hello — advertising a freshly opened peer listener, so
// a mesh hub can introduce this worker to its peers — then blocks until the
// hub assigns this process a rank and ships the job metadata. The returned
// transport hosts exactly that rank; build the matching plan from meta and
// serve it.
func DialWorker(network, addr string) (*WorkerTransport, WorldMeta, error) {
	return dialWorker(network, addr, true)
}

// DialWorkerNoMesh is DialWorker without mesh participation: the worker
// advertises no peer listener, so all of its worker↔worker traffic relays
// through the hub even under a mesh hub. Exists for heterogeneous fleets
// (a worker behind a one-way reachable network) and for exercising the
// relay fallback deliberately.
func DialWorkerNoMesh(network, addr string) (*WorkerTransport, WorldMeta, error) {
	return dialWorker(network, addr, false)
}

func dialWorker(network, addr string, mesh bool) (*WorkerTransport, WorldMeta, error) {
	deadline := time.Now().Add(handshakeTimeout)
	var c net.Conn
	var err error
	for {
		c, err = net.Dial(network, addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, WorldMeta{}, fmt.Errorf("mpi: dialing hub %s %s: %w", network, addr, err)
		}
		time.Sleep(dialRetryInterval)
	}
	wc := newWireConn(c)
	var meshLn net.Listener
	hello := []byte(wireMagic)
	if mesh {
		// Best-effort: a worker that cannot open a listener still joins the
		// world, it just stays on the relay for every pair.
		if ln, advert, err := listenPeer(network, c); err == nil {
			meshLn = ln
			hello = append(append(hello, 0), advert...)
		} else {
			meshLogf("mpi: peer listener unavailable (%v); worker joins relay-only", err)
		}
	}
	c.SetDeadline(deadline)
	if err := wc.writeControl(frameHello, hello); err != nil {
		c.Close()
		closeIfOpen(meshLn)
		return nil, WorldMeta{}, fmt.Errorf("mpi: hello: %w", err)
	}
	h, body, err := readFrame(wc.br, nil, 1, 0)
	if err != nil || h.typ != frameConfig {
		c.Close()
		closeIfOpen(meshLn)
		return nil, WorldMeta{}, fmt.Errorf("mpi: waiting for hub config (type %d): %v", h.typ, err)
	}
	rank, meta, err := decodeConfig(body)
	if err != nil {
		c.Close()
		closeIfOpen(meshLn)
		return nil, WorldMeta{}, err
	}
	c.SetDeadline(time.Time{})
	t := &WorkerTransport{p: meta.P, rank: rank, wc: wc, maxElems: meta.N, network: network, meshLn: meshLn}
	t.inbox = newInboxRow(meta.P)
	t.peers = make([]atomic.Pointer[wireConn], meta.P)
	return t, meta, nil
}

func closeIfOpen(ln net.Listener) {
	if ln != nil {
		ln.Close()
	}
}

// listenPeer opens this worker's peer listener on the same network family it
// reached the hub over, returning the address to advertise. Unix listeners
// get a per-process temp socket path; TCP listeners bind an ephemeral port
// and advertise it at the host address the worker used to reach the hub
// (the address it is provably reachable at on that network).
func listenPeer(network string, hub net.Conn) (net.Listener, string, error) {
	if network == "unix" {
		path := filepath.Join(os.TempDir(),
			fmt.Sprintf("ftfft-mesh-%d-%d.sock", os.Getpid(), meshSockSeq.Add(1)))
		ln, err := net.Listen(network, path)
		if err != nil {
			return nil, "", err
		}
		return ln, path, nil
	}
	ln, err := net.Listen(network, ":0")
	if err != nil {
		return nil, "", err
	}
	host, _, err := net.SplitHostPort(hub.LocalAddr().String())
	if err != nil || host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	_, port, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, "", err
	}
	return ln, net.JoinHostPort(host, port), nil
}

// Rank returns the rank the hub assigned this process.
func (t *WorkerTransport) Rank() int { return t.rank }

// WorldSize returns the number of ranks in the world.
func (t *WorkerTransport) WorldSize() int { return t.p }

// LocalRanks implements RankPlacement: one rank per worker process.
func (t *WorkerTransport) LocalRanks() []int { return []int{t.rank} }

// InjectWireFaults installs a hook over outgoing serialized payloads.
func (t *WorkerTransport) InjectWireFaults(f WireFault) {
	t.wfMu.Lock()
	t.wireFault = f
	t.wfMu.Unlock()
}

func (t *WorkerTransport) getWireFault() WireFault {
	t.wfMu.Lock()
	defer t.wfMu.Unlock()
	return t.wireFault
}

// Bind implements WorldBinder and starts the connection reader, plus the
// peer-accept loop when this worker advertises a mesh listener. (Peers dial
// only after receiving the hub's framePeers broadcast, which this worker's
// own read loop also consumes — both strictly after Bind, so the listener's
// kernel backlog covers the gap.)
func (t *WorkerTransport) Bind(w *World) {
	t.w = w
	if t.meshLn != nil {
		go t.acceptPeers()
	}
	go t.readLoop()
}

// acceptPeers accepts direct connections from lower-ranked peers until the
// mesh listener closes.
func (t *WorkerTransport) acceptPeers() {
	for {
		c, err := t.meshLn.Accept()
		if err != nil {
			return
		}
		go t.handlePeerConn(c)
	}
}

// handlePeerConn validates one inbound peer connection: a peer hello naming
// a lower rank, answered with our own hello as the ack. Both legs are
// deadline-bounded; a connection that stalls or misidentifies itself is
// dropped (its owner falls back to the relay), never fatal.
func (t *WorkerTransport) handlePeerConn(c net.Conn) {
	pc := newWireConn(c)
	c.SetDeadline(time.Now().Add(meshDialTimeout))
	h, body, err := readFrame(pc.br, nil, t.p, 0)
	if err != nil || h.typ != framePeerHello || !bytes.Equal(body, []byte(wireMagic)) ||
		h.src < 1 || h.src >= t.p || h.src >= t.rank {
		c.Close()
		return
	}
	if err := pc.writeControlFrom(framePeerHello, t.rank, []byte(wireMagic)); err != nil {
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	if !t.peers[h.src].CompareAndSwap(nil, pc) {
		c.Close() // duplicate dial; exactly one conn per pair
		return
	}
	go t.peerReadLoop(h.src, pc)
}

// startMesh parses the hub's framePeers payload and dials every advertised
// peer with a rank above ours (the deterministic dialer side). Dials run
// concurrently and deadline-bounded; an unreachable peer logs a fallback
// note and leaves that pair on the hub relay.
func (t *WorkerTransport) startMesh(peers string) {
	for _, line := range strings.Split(peers, "\n") {
		rankStr, addr, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		s, err := strconv.Atoi(rankStr)
		if err != nil || s <= t.rank || s >= t.p || addr == "" {
			continue
		}
		go t.dialPeer(s, addr)
	}
}

// dialPeer establishes the direct connection to higher-ranked peer s.
func (t *WorkerTransport) dialPeer(s int, addr string) {
	c, err := net.DialTimeout(t.network, addr, meshDialTimeout)
	if err != nil {
		meshLogf("mpi: rank %d: peer rank %d unreachable at %s (%v); using hub relay for this pair", t.rank, s, addr, err)
		return
	}
	pc := newWireConn(c)
	c.SetDeadline(time.Now().Add(meshDialTimeout))
	if err := pc.writeControlFrom(framePeerHello, t.rank, []byte(wireMagic)); err != nil {
		c.Close()
		meshLogf("mpi: rank %d: peer hello to rank %d failed (%v); using hub relay for this pair", t.rank, s, err)
		return
	}
	h, body, err := readFrame(pc.br, nil, t.p, 0)
	if err != nil || h.typ != framePeerHello || h.src != s || !bytes.Equal(body, []byte(wireMagic)) {
		c.Close()
		meshLogf("mpi: rank %d: peer rank %d handshake failed (type %d, %v); using hub relay for this pair", t.rank, s, h.typ, err)
		return
	}
	c.SetDeadline(time.Time{})
	if !t.peers[s].CompareAndSwap(nil, pc) {
		c.Close()
		return
	}
	go t.peerReadLoop(s, pc)
}

// peerReadLoop drains one direct peer connection. Only data frames addressed
// to this rank from that peer are legal; anything else — including a read
// error — drops the connection back to the relay, never aborting the world
// (the hub connection is the world's failure channel).
func (t *WorkerTransport) peerReadLoop(src int, pc *wireConn) {
	hdr := make([]byte, frameHeaderLen)
	for {
		h, err := readHeader(pc.br, hdr, t.p, t.maxElems)
		if err != nil {
			t.dropPeer(src, pc, err)
			return
		}
		if h.typ != frameData || h.dst != t.rank || h.src != src {
			t.dropPeer(src, pc, fmt.Errorf("mpi: unexpected peer frame type %d %d→%d", h.typ, h.src, h.dst))
			return
		}
		m, err := readDataBody(pc.br, h)
		if err != nil {
			t.dropPeer(src, pc, err)
			return
		}
		if !deliver(t.inbox[h.src], m, t.w.done) {
			putWireBuf(m.rb)
			return
		}
	}
}

// dropPeer retires a direct peer connection; subsequent traffic for the pair
// relays through the hub. Quiet during shutdown/abort teardown.
func (t *WorkerTransport) dropPeer(src int, pc *wireConn, err error) {
	if !t.peers[src].CompareAndSwap(pc, nil) {
		return
	}
	pc.c.Close()
	if t.closing.Load() || t.shutdown.Load() || (t.w != nil && t.w.Aborted()) {
		return
	}
	meshLogf("mpi: rank %d: peer conn to rank %d lost (%v); falling back to hub relay", t.rank, src, err)
}

// readLoop drains the hub connection into the local rank's inbox. Data
// frames carry their serialized element bytes in a pooled buffer and are
// decoded directly into the posted receive buffer (decode-in-place).
func (t *WorkerTransport) readLoop() {
	r := t.wc.br
	var body []byte
	hdr := make([]byte, frameHeaderLen)
	for {
		h, err := readHeader(r, hdr, t.p, t.maxElems)
		if err != nil {
			if !t.shutdown.Load() && !t.w.Aborted() {
				t.w.Abort(fmt.Errorf("mpi: hub connection lost: %w", err))
			}
			return
		}
		if h.typ == frameData && h.dst == t.rank {
			m, err := readDataBody(r, h)
			if err != nil {
				t.w.Abort(err)
				return
			}
			if !deliver(t.inbox[h.src], m, t.w.done) {
				putWireBuf(m.rb)
				return
			}
			continue
		}
		b, err := readBody(r, body, h)
		body = b
		if err != nil {
			if !t.shutdown.Load() && !t.w.Aborted() {
				t.w.Abort(fmt.Errorf("mpi: hub connection lost: %w", err))
			}
			return
		}
		switch h.typ {
		case frameData:
			// Misrouted (dst is another rank); drop.
		case framePeers:
			// A worker without a peer listener (DialWorkerNoMesh, or a failed
			// listen) is relay-only in both directions: it must not dial out
			// either, or its outbound traffic would bypass the relay contract.
			if t.meshLn != nil {
				t.startMesh(string(body))
			}
		case frameAbort:
			t.remote.Store(true)
			t.w.Abort(&RemoteAbortError{Msg: string(body)})
			return
		case frameGoodbye:
			t.remote.Store(true)
			t.shutdown.Store(true)
			t.w.Abort(ErrShutdown)
			return
		}
	}
}

// Send implements Transport: self-sends land in the inbox; a frame for a
// peer with an established direct connection goes point-to-point; everything
// else goes to the hub, which routes on the frame's dst field. A failed peer
// write retires that connection and retries over the relay — only the hub
// connection's failure aborts the world.
func (t *WorkerTransport) Send(dst, src int, m Message, abort <-chan struct{}) bool {
	if dst == t.rank {
		return deliver(t.inbox[src], m, abort)
	}
	select {
	case <-abort:
		return false
	default:
	}
	if pc := t.peers[dst].Load(); pc != nil {
		if err := pc.writeData(dst, src, m, t.getWireFault()); err == nil {
			t.stats.add(true, dataFrameBytes(m))
			if m.pb != nil {
				payloads.Put(m.pb)
			}
			return true
		} else {
			t.dropPeer(dst, pc, err)
		}
	}
	if err := t.wc.writeData(dst, src, m, t.getWireFault()); err != nil {
		if !t.shutdown.Load() && !t.w.Aborted() {
			t.w.Abort(fmt.Errorf("mpi: hub connection lost: %w", err))
		}
		return false
	}
	t.stats.add(dst == 0, dataFrameBytes(m))
	if m.pb != nil {
		payloads.Put(m.pb)
	}
	return true
}

// SerializesInline implements InlineSerializer (see HubTransport).
func (t *WorkerTransport) SerializesInline() bool { return true }

// PeerMesh reports whether this worker advertises a peer listener.
func (t *WorkerTransport) PeerMesh() bool { return t.meshLn != nil }

// InMesh reports whether the direct connection to peer rank s is currently
// established (false = that pair is on the hub relay).
func (t *WorkerTransport) InMesh(s int) bool {
	return s >= 0 && s < t.p && t.peers[s].Load() != nil
}

// WireStats snapshots this worker's traffic counters: direct frames went
// over a peer connection or straight to rank 0, relayed frames took the
// two-hop path through the hub.
func (t *WorkerTransport) WireStats() WireStats {
	s := t.stats.snapshot()
	for i := range t.peers {
		if t.peers[i].Load() != nil {
			s.PeerConns++
		}
	}
	if t.w != nil {
		s.MaxEpochsInFlight = t.w.EpochHighWater()
	}
	return s
}

// Recv implements Transport for the worker's local rank (dst == Rank()).
func (t *WorkerTransport) Recv(dst, src int, abort <-chan struct{}) (Message, bool) {
	select {
	case m := <-t.inbox[src]:
		return m, true
	case <-abort:
		return Message{}, false
	}
}

// PropagateAbort implements AbortPropagator: tell the hub (which relays to
// the other workers), unless the pill came from the wire. Deadline-bounded
// like the hub's broadcast, so a wedged hub conn cannot block the abort.
func (t *WorkerTransport) PropagateAbort(cause error) {
	if t.remote.Load() {
		return
	}
	t.wc.c.SetWriteDeadline(time.Now().Add(teardownFlushTimeout))
	t.wc.writeControl(frameAbort, []byte(cause.Error()))
}

// Close tears the hub connection, the peer listener and every direct peer
// connection down. Idempotent.
func (t *WorkerTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closing.Store(true)
		closeIfOpen(t.meshLn)
		for i := range t.peers {
			if pc := t.peers[i].Load(); pc != nil {
				pc.c.Close()
			}
		}
		t.wc.c.Close()
	})
	return nil
}
