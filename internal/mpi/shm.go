// shm.go implements the same-host shared-memory wire: every rank pair gets a
// single-producer/single-consumer ring buffer in one memory-mapped file, and
// frames — the exact wire.go codec socket transports speak — are serialized
// directly into the ring and copied out once into a pooled buffer on receipt.
// No sockets, no syscalls per message, no kernel copies: a send is a bounded
// ring reservation, an in-place serialization sweep (fused with the §5
// checksum generation upstream, in IsendPair), and one atomic tail store.
//
// Topology is a full mesh: rank r produces into ring(dst, r) for every dst
// and consumes rings (r, src) for every src, so worker↔worker traffic never
// relays through the root — unlike the socket wire, where the hub forwards.
//
// File layout (all little-endian, offsets fixed by shmHeader* constants):
//
//	[0, 4096)   header page: magic, p, state, rank-claim counter, ring size,
//	            job metadata (mirrors the frameConfig payload), and one
//	            attach flag per rank.
//	then p×p rings, ring(dst, src) at shmHeaderBytes +
//	            (dst*p+src)*(shmRingHdrBytes+ringBytes):
//	  +0    head  (u64, atomic; consumer-owned)
//	  +64   tail  (u64, atomic; producer-owned — its own cache line)
//	  +128  data  (ringBytes bytes of records)
//
// A record is 8-byte aligned: u32 frame length, u32 sequence number, the
// frame bytes (wire.go header + optional checksum block + elements), padding
// to the next 8-byte boundary. A frame that would straddle the ring edge is
// preceded by a wrap marker (length 0xFFFFFFFF): the consumer skips to the
// ring start. Sequence numbers are per-ring and monotonic; the consumer
// validates every record's (decodeShmRecord — fuzzed, never panics) so a
// corrupted or torn ring degrades into a world abort, not a crash.
//
// Lifecycle: CreateShmHub creates the file with state=created; workers
// (DialShmWorker) poll until the hub's ConfigureWorld — which sizes the
// rings from the job geometry, maps the file, publishes the metadata, and
// flips state to ready — then map it, claim a rank from the shared counter,
// and raise their attach flag. ConfigureWorld waits for all attach flags
// (bounded by handshakeTimeout), mirroring the socket hub's accept loop.
// Aborts broadcast mesh-wide as frameAbort records; Close sends goodbye
// frames, unmaps, and removes the file.
//
// Note SharedMemory() is false: the rings share frame bytes across
// processes, but the caller's input/output slices still live in one address
// space each, so the in-process direct-slice fast path does not apply —
// every transfer goes through the explicit (checksummed) message exchange,
// exactly as over sockets.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const (
	// shmMagic opens the header page; a layout change bumps the version.
	shmMagic = "FTSHM/1\x00"

	// shmHeaderBytes is the header page size; rings start past it.
	shmHeaderBytes = 4096

	// shmRingHdrBytes holds one ring's head and tail counters on separate
	// cache lines, so producer and consumer stores don't false-share.
	shmRingHdrBytes = 128

	// shmRecHdrBytes prefixes every record: u32 frame length, u32 sequence.
	shmRecHdrBytes = 8

	// shmWrapMarker in a record's length field sends the consumer back to
	// the ring start (the frame would have straddled the edge).
	shmWrapMarker = ^uint32(0)

	// shmStateReady is the header state once ConfigureWorld has sized the
	// rings and published the job metadata; workers wait for it.
	shmStateReady = 1

	// shmMinRingBytes floors the ring size for tiny worlds.
	shmMinRingBytes = 1 << 16

	// shmSpinIters bounds the busy-spin (with Gosched) a parked producer or
	// consumer burns before escalating to timed sleeps.
	shmSpinIters = 4096
)

// Header page field offsets.
const (
	shmOffMagic      = 0  // 8 bytes
	shmOffP          = 8  // u32
	shmOffState      = 12 // u32, atomic
	shmOffClaimed    = 16 // u32, atomic rank-claim counter
	shmOffRingBytes  = 20 // u32
	shmOffN          = 24 // u64
	shmOffMaxRetries = 32 // u32
	shmOffFlags      = 36 // u32: bit0 protected, bit1 optimized
	shmOffEtaScale   = 40 // f64
	shmOffAttached   = 64 // u32 per rank, atomic
)

// shmU32 and shmU64 view a mapped offset as an atomically-accessed counter.
// Every use site is 4- (resp. 8-) byte aligned by construction: the mapping
// is page-aligned and all offsets are multiples of the access size.
func shmU32(mem []byte, off int) *uint32 { return (*uint32)(unsafe.Pointer(&mem[off])) }
func shmU64(mem []byte, off int) *uint64 { return (*uint64)(unsafe.Pointer(&mem[off])) }

// shmRingBytes sizes every ring from the job geometry: at least four of the
// largest data frame (a scatter/gather slice of N/P elements plus checksum
// block and record header), never smaller than the largest control frame,
// rounded up to a power of two.
func shmRingBytes(meta WorldMeta) int {
	q := meta.N / meta.P
	maxFrame := shmRecHdrBytes + frameHeaderLen + checksumLen + q*elemLen
	if ctl := shmRecHdrBytes + frameHeaderLen + maxControlPayload; ctl > maxFrame {
		maxFrame = ctl
	}
	rb := 8 * maxFrame
	if rb < shmMinRingBytes {
		rb = shmMinRingBytes
	}
	return 1 << bits.Len(uint(rb-1))
}

// shmFileSize is the full mapped length for a p-rank world.
func shmFileSize(p, ringBytes int) int64 {
	return int64(shmHeaderBytes) + int64(p)*int64(p)*int64(shmRingHdrBytes+ringBytes)
}

// shmEndpoint is the per-process core shared by hub and worker: the mapping,
// this process's rank, its inbox row, and the producer/consumer state over
// the rings it touches.
type shmEndpoint struct {
	path      string
	f         *os.File
	mem       []byte
	p         int
	rank      int
	ringBytes int
	maxElems  int
	inbox     []chan Message

	w         *World
	wfMu      sync.Mutex
	wireFault WireFault
	remote    atomic.Bool // the poison pill arrived over a ring
	shutdown  atomic.Bool // goodbye received: teardown is expected
	closing   atomic.Bool // deliberate local Close
	stop      chan struct{}
	readers   sync.WaitGroup
	closeOnce sync.Once

	sendMu []sync.Mutex // per-destination: PropagateAbort can race a data send
	seqOut []uint64     // next sequence per destination ring; guarded by sendMu

	stats wireCounters // every shm frame is peer-direct: the rings are a mesh
}

func (e *shmEndpoint) init(path string, f *os.File, p int) {
	e.path = path
	e.f = f
	e.p = p
	e.inbox = newInboxRow(p)
	e.stop = make(chan struct{})
	e.sendMu = make([]sync.Mutex, p)
	e.seqOut = make([]uint64, p)
}

// ringOff returns the byte offset of ring(dst, src)'s header.
func (e *shmEndpoint) ringOff(dst, src int) int {
	return shmHeaderBytes + (dst*e.p+src)*(shmRingHdrBytes+e.ringBytes)
}

func (e *shmEndpoint) ringHead(dst, src int) *uint64 {
	return shmU64(e.mem, e.ringOff(dst, src))
}

func (e *shmEndpoint) ringTail(dst, src int) *uint64 {
	return shmU64(e.mem, e.ringOff(dst, src)+64)
}

func (e *shmEndpoint) ringData(dst, src int) []byte {
	off := e.ringOff(dst, src) + shmRingHdrBytes
	return e.mem[off : off+e.ringBytes]
}

// Path returns the shared-memory file's path.
func (e *shmEndpoint) Path() string { return e.path }

// WorldSize returns the number of ranks in the world.
func (e *shmEndpoint) WorldSize() int { return e.p }

// LocalRanks implements RankPlacement: one rank per process.
func (e *shmEndpoint) LocalRanks() []int { return []int{e.rank} }

// SharedMemory reports false: the rings are shared, the callers' data slices
// are not — see the package comment at the top of this file.
func (e *shmEndpoint) SharedMemory() bool { return false }

// InjectWireFaults installs a hook over outgoing serialized payloads — the
// wire-level fault site, applied to the ring bytes before the frame is
// published. A nil hook removes it.
func (e *shmEndpoint) InjectWireFaults(f WireFault) {
	e.wfMu.Lock()
	e.wireFault = f
	e.wfMu.Unlock()
}

func (e *shmEndpoint) getWireFault() WireFault {
	e.wfMu.Lock()
	defer e.wfMu.Unlock()
	return e.wireFault
}

// shmPark escalates a failed poll: bounded Gosched spin first (the common
// case — the peer is actively producing), then short sleeps so an idle ring
// costs no CPU without adding more than a few hundred microseconds of
// wake-up latency.
func shmPark(spin *int) {
	*spin++
	switch {
	case *spin < shmSpinIters:
		runtime.Gosched()
	case *spin < 4*shmSpinIters:
		time.Sleep(50 * time.Microsecond)
	default:
		time.Sleep(500 * time.Microsecond)
	}
}

// reserveRecord blocks until ring(dst ← e.rank) has room for a frameLen-byte
// frame and stamps the record header, returning the frame's in-ring bytes
// and the total advance for the matching publishRecord. The record becomes
// visible to the consumer only at publish. Callers hold sendMu[dst].
//
// abort, when non-nil, cancels the wait (data sends); teardown writes pass a
// deadline instead, so the pill flushes even out of an aborted world.
func (e *shmEndpoint) reserveRecord(dst, frameLen int, abort <-chan struct{}, deadline time.Time) (frame []byte, advance uint64, err error) {
	rb := uint64(e.ringBytes)
	rec := (uint64(shmRecHdrBytes) + uint64(frameLen) + 7) &^ 7
	if rec > rb {
		return nil, 0, fmt.Errorf("mpi: shm frame of %d bytes exceeds the ring capacity %d", frameLen, e.ringBytes)
	}
	headP := e.ringHead(dst, e.rank)
	tailP := e.ringTail(dst, e.rank)
	data := e.ringData(dst, e.rank)
	tail := atomic.LoadUint64(tailP)
	pos := tail % rb
	var pad uint64
	if rb-pos < rec {
		pad = rb - pos // wrap: the record moves to the ring start
	}
	total := pad + rec
	spin := 0
	for rb-(tail-atomic.LoadUint64(headP)) < total {
		if abort != nil {
			select {
			case <-abort:
				return nil, 0, e.w.abortError()
			default:
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("mpi: shm ring %d←%d full past deadline", dst, e.rank)
		}
		shmPark(&spin)
	}
	if pad != 0 {
		binary.LittleEndian.PutUint32(data[pos:], shmWrapMarker)
		pos = 0
	}
	seq := e.seqOut[dst]
	e.seqOut[dst] = seq + 1
	binary.LittleEndian.PutUint32(data[pos:], uint32(frameLen))
	binary.LittleEndian.PutUint32(data[pos+4:], uint32(seq))
	return data[pos+shmRecHdrBytes : pos+shmRecHdrBytes+uint64(frameLen)], total, nil
}

// publishRecord makes the reserved record visible: one atomic tail store.
func (e *shmEndpoint) publishRecord(dst int, advance uint64) {
	tailP := e.ringTail(dst, e.rank)
	atomic.StoreUint64(tailP, atomic.LoadUint64(tailP)+advance)
}

// writeData serializes a data frame directly into the destination ring —
// header, checksum block, elements — applies the wire-fault hook to the
// in-ring payload bytes, and publishes.
func (e *shmEndpoint) writeData(dst, src int, m Message, wf WireFault) error {
	h := frameHeader{typ: frameData, tag: m.Tag, src: src, dst: dst, count: len(m.Data), epoch: m.Epoch}
	if m.HasCS {
		h.flags = flagHasCS
	}
	frameLen := frameHeaderLen + h.payloadBytes()
	e.sendMu[dst].Lock()
	defer e.sendMu[dst].Unlock()
	frame, advance, err := e.reserveRecord(dst, frameLen, e.w.done, time.Time{})
	if err != nil {
		return err
	}
	putHeader(frame, h)
	off := frameHeaderLen
	if m.HasCS {
		putComplex(frame, off, m.CS[0])
		putComplex(frame, off+elemLen, m.CS[1])
		off += checksumLen
	}
	payload := frame[off:]
	putElems(payload, m.Data, nil)
	if wf != nil && len(payload) > 0 {
		wf(dst, src, m.Tag, int(m.Epoch), payload)
	}
	e.publishRecord(dst, advance)
	return nil
}

// writeControl serializes a control frame (abort, goodbye) into the
// destination ring, deadline-bounded so teardown cannot wedge on a full
// ring whose consumer is gone.
func (e *shmEndpoint) writeControl(dst int, typ byte, payload []byte, deadline time.Time) error {
	if len(payload) > maxControlPayload {
		payload = payload[:maxControlPayload]
	}
	h := frameHeader{typ: typ, src: e.rank, dst: dst, count: len(payload)}
	frameLen := frameHeaderLen + len(payload)
	e.sendMu[dst].Lock()
	defer e.sendMu[dst].Unlock()
	frame, advance, err := e.reserveRecord(dst, frameLen, nil, deadline)
	if err != nil {
		return err
	}
	putHeader(frame, h)
	copy(frame[frameHeaderLen:], payload)
	e.publishRecord(dst, advance)
	return nil
}

// Send implements Transport: self-sends land in the inbox; everything else
// is serialized into the peer's ring. The pooled payload is recycled only on
// success — a false return leaves ownership with the caller, per the
// Transport contract.
func (e *shmEndpoint) Send(dst, src int, m Message, abort <-chan struct{}) bool {
	if dst == e.rank {
		return deliver(e.inbox[src], m, abort)
	}
	select {
	case <-abort:
		return false
	default:
	}
	if err := e.writeData(dst, src, m, e.getWireFault()); err != nil {
		if !e.shutdown.Load() && !e.w.Aborted() {
			e.w.Abort(fmt.Errorf("mpi: shm send to rank %d: %w", dst, err))
		}
		return false
	}
	e.stats.add(true, dataFrameBytes(m))
	if m.pb != nil {
		payloads.Put(m.pb)
	}
	return true
}

// SerializesInline implements InlineSerializer: writeData consumes the
// caller's slice synchronously (the in-ring serialization sweep finishes
// before Send returns), so Isend can skip the pooled staging copy.
func (e *shmEndpoint) SerializesInline() bool { return true }

// WireStats implements the stats capability: every shm frame travels
// peer-direct over its ring (the topology is already a mesh, with no relay
// to count).
func (e *shmEndpoint) WireStats() WireStats {
	s := e.stats.snapshot()
	if w := e.w; w != nil {
		s.MaxEpochsInFlight = w.EpochHighWater()
	}
	return s
}

// Recv implements Transport for this process's rank (dst == e.rank).
func (e *shmEndpoint) Recv(dst, src int, abort <-chan struct{}) (Message, bool) {
	select {
	case m := <-e.inbox[src]:
		return m, true
	case <-abort:
		return Message{}, false
	}
}

// PropagateAbort implements AbortPropagator: broadcast the pill directly to
// every peer ring (the mesh needs no relay), unless it arrived from a ring
// (the originator already broadcast it). Deadline-bounded per peer.
func (e *shmEndpoint) PropagateAbort(cause error) {
	if e.remote.Load() {
		return
	}
	payload := []byte(cause.Error())
	deadline := time.Now().Add(teardownFlushTimeout)
	for r := 0; r < e.p; r++ {
		if r != e.rank {
			e.writeControl(r, frameAbort, payload, deadline)
		}
	}
}

// stopped reports whether this endpoint's readers should exit: a local
// Close or a (terminally) aborted world.
func (e *shmEndpoint) stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
	}
	if w := e.w; w != nil && w.Aborted() {
		return true
	}
	return false
}

// startReaders launches one consumer per peer ring.
func (e *shmEndpoint) startReaders() {
	for src := 0; src < e.p; src++ {
		if src == e.rank {
			continue
		}
		e.readers.Add(1)
		go e.readLoop(src)
	}
}

// readLoop consumes ring(e.rank, src): validate the record, copy the frame
// once into a pooled buffer, advance head (releasing the ring space), and
// deliver — the element bytes stay serialized until RecvRequest decodes them
// in place into the posted receive buffer.
func (e *shmEndpoint) readLoop(src int) {
	defer e.readers.Done()
	headP := e.ringHead(e.rank, src)
	tailP := e.ringTail(e.rank, src)
	data := e.ringData(e.rank, src)
	head := atomic.LoadUint64(headP)
	var seq uint32
	spin := 0
	for {
		tail := atomic.LoadUint64(tailP)
		if head == tail {
			if e.stopped() {
				return
			}
			shmPark(&spin)
			continue
		}
		spin = 0
		advance, wrap, h, body, err := decodeShmRecord(data, head, tail, seq, e.p, e.maxElems)
		if err != nil {
			e.ringLost(src, err)
			return
		}
		if wrap {
			head += advance
			atomic.StoreUint64(headP, head)
			continue
		}
		seq++
		switch h.typ {
		case frameData:
			if h.src != src || h.dst != e.rank {
				e.ringLost(src, fmt.Errorf("mpi: shm ring %d→%d carried frame %d→%d", src, e.rank, h.src, h.dst))
				return
			}
			// Copy out before advancing head: after the store the producer
			// may legitimately overwrite these bytes.
			rb := getWireBuf(len(body))
			copy(rb.data, body)
			head += advance
			atomic.StoreUint64(headP, head)
			m := Message{Tag: h.tag, Epoch: h.epoch, count: h.count, rb: rb}
			off := 0
			if h.flags&flagHasCS != 0 {
				m.CS[0] = getComplex(rb.data, 0)
				m.CS[1] = getComplex(rb.data, elemLen)
				m.HasCS = true
				off = checksumLen
			}
			m.raw = rb.data[off:]
			if !deliver(e.inbox[src], m, e.w.done) {
				putWireBuf(m.rb)
				return
			}
		case frameAbort:
			e.remote.Store(true)
			e.w.Abort(&RemoteAbortError{Msg: string(body)})
			return
		case frameGoodbye:
			e.remote.Store(true)
			e.shutdown.Store(true)
			e.w.Abort(ErrShutdown)
			return
		default:
			// Hello/config/service frames never travel over rings; skip.
			head += advance
			atomic.StoreUint64(headP, head)
		}
	}
}

// ringLost poisons the world on a corrupted or torn ring; quiet when the
// teardown already explains it.
func (e *shmEndpoint) ringLost(src int, err error) {
	if e.closing.Load() || e.shutdown.Load() || e.w.Aborted() {
		return
	}
	e.w.Abort(fmt.Errorf("mpi: shm ring %d→%d: %w", src, e.rank, err))
}

// unmap tears the mapping down after the readers have exited (they hold ring
// slices into it) and closes the file.
func (e *shmEndpoint) unmap() {
	if e.w != nil {
		e.w.Abort(ErrShutdown) // unblocks readers parked in deliver
	}
	close(e.stop)
	e.readers.Wait()
	if e.mem != nil {
		syscall.Munmap(e.mem)
		e.mem = nil
	}
	if e.f != nil {
		e.f.Close()
	}
}

// decodeShmRecord validates and parses the record at head in a ring's data
// region, against the published tail and the expected sequence number. It
// returns the total advance past the record, whether it was a wrap marker
// (no frame), and otherwise the parsed frame header and its body bytes
// (aliasing data — records never straddle the ring edge). Any byte pattern
// is safe: every field is bounds-checked before use, so hostile or torn ring
// contents produce an error, never a panic (FuzzShmFrame pins this).
func decodeShmRecord(data []byte, head, tail uint64, wantSeq uint32, p, maxElems int) (advance uint64, wrap bool, h frameHeader, body []byte, err error) {
	rb := uint64(len(data))
	if rb == 0 || rb%8 != 0 {
		return 0, false, h, nil, fmt.Errorf("ring size %d is not a positive multiple of 8", len(data))
	}
	if head > tail || tail-head > rb {
		return 0, false, h, nil, fmt.Errorf("counters head=%d tail=%d out of range", head, tail)
	}
	avail := tail - head
	pos := head % rb
	if pos%8 != 0 || avail < 4 {
		return 0, false, h, nil, fmt.Errorf("torn record at %d (%d bytes available)", pos, avail)
	}
	size := binary.LittleEndian.Uint32(data[pos:])
	if size == shmWrapMarker {
		advance = rb - pos
		if advance == 0 || advance > avail {
			return 0, false, h, nil, fmt.Errorf("wrap marker at %d overruns the published tail", pos)
		}
		return advance, true, h, nil, nil
	}
	if uint64(size) < frameHeaderLen || uint64(size) > rb-shmRecHdrBytes {
		return 0, false, h, nil, fmt.Errorf("frame length %d out of range", size)
	}
	rec := (uint64(shmRecHdrBytes) + uint64(size) + 7) &^ 7
	if rec > rb-pos {
		return 0, false, h, nil, fmt.Errorf("record at %d straddles the ring edge", pos)
	}
	if rec > avail {
		return 0, false, h, nil, fmt.Errorf("torn record at %d (%d of %d bytes published)", pos, avail, rec)
	}
	if seq := binary.LittleEndian.Uint32(data[pos+4:]); seq != wantSeq {
		return 0, false, h, nil, fmt.Errorf("sequence %d, want %d", seq, wantSeq)
	}
	h, err = parseHeader(data[pos+shmRecHdrBytes:pos+shmRecHdrBytes+frameHeaderLen], p, maxElems)
	if err != nil {
		return 0, false, h, nil, err
	}
	if want := h.payloadBytes(); int(size) != frameHeaderLen+want {
		return 0, false, h, nil, fmt.Errorf("frame length %d, header implies %d", size, frameHeaderLen+want)
	}
	body = data[pos+shmRecHdrBytes+frameHeaderLen : pos+shmRecHdrBytes+uint64(size)]
	return rec, false, h, body, nil
}

// ShmHubTransport is the root process's side of the shared-memory wire: rank
// 0 lives here; it creates the file, sizes the rings at plan-build time, and
// removes the file on Close.
type ShmHubTransport struct {
	shmEndpoint
	started bool
}

// CreateShmHub creates the shared-memory file for a p-rank world at path
// (which must not exist; it is removed again on Close) and returns
// immediately. The rings are sized and published when the plan built over
// this transport runs its handshake (ConfigureWorld); workers started on the
// same path (DialShmWorker, or `ftfft -worker -transport shm`) wait for
// that.
func CreateShmHub(path string, p int) (*ShmHubTransport, error) {
	if p < 2 {
		return nil, fmt.Errorf("mpi: a shm world needs at least 2 ranks, got %d", p)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("mpi: creating shm file: %w", err)
	}
	var hdr [shmHeaderBytes]byte
	copy(hdr[shmOffMagic:], shmMagic)
	binary.LittleEndian.PutUint32(hdr[shmOffP:], uint32(p))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("mpi: writing shm header: %w", err)
	}
	t := &ShmHubTransport{}
	t.init(path, f, p)
	t.rank = 0
	return t, nil
}

// Bind implements WorldBinder; the readers start in ConfigureWorld, once the
// rings exist.
func (t *ShmHubTransport) Bind(w *World) { t.w = w }

// ConfigureWorld completes the handshake: it sizes the rings from the job
// geometry, grows and maps the file, publishes the metadata (flipping the
// header state to ready), waits for every worker's attach flag (bounded by
// handshakeTimeout), and starts the ring readers. Called once, at plan-build
// time.
func (t *ShmHubTransport) ConfigureWorld(meta WorldMeta) error {
	if t.w == nil {
		return fmt.Errorf("mpi: shm hub transport not bound to a world")
	}
	if meta.P != t.p {
		return fmt.Errorf("mpi: plan has %d ranks but the shm hub was created for %d", meta.P, t.p)
	}
	if t.started {
		return fmt.Errorf("mpi: shm hub transport already configured (one world per transport)")
	}
	t.ringBytes = shmRingBytes(meta)
	size := shmFileSize(t.p, t.ringBytes)
	if err := t.f.Truncate(size); err != nil {
		return fmt.Errorf("mpi: sizing shm file to %d bytes: %w", size, err)
	}
	mem, err := syscall.Mmap(int(t.f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mpi: mapping shm file: %w", err)
	}
	t.mem = mem
	t.maxElems = meta.N
	binary.LittleEndian.PutUint32(mem[shmOffRingBytes:], uint32(t.ringBytes))
	binary.LittleEndian.PutUint64(mem[shmOffN:], uint64(meta.N))
	binary.LittleEndian.PutUint32(mem[shmOffMaxRetries:], uint32(meta.MaxRetries))
	var flags uint32
	if meta.Protected {
		flags |= 1
	}
	if meta.Optimized {
		flags |= 2
	}
	binary.LittleEndian.PutUint32(mem[shmOffFlags:], flags)
	binary.LittleEndian.PutUint64(mem[shmOffEtaScale:], math.Float64bits(meta.EtaScale))
	atomic.StoreUint32(shmU32(mem, shmOffState), shmStateReady)
	deadline := time.Now().Add(handshakeTimeout)
	for r := 1; r < t.p; r++ {
		for atomic.LoadUint32(shmU32(mem, shmOffAttached+4*r)) == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("mpi: worker rank %d did not attach within %v", r, handshakeTimeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.started = true
	t.startReaders()
	return nil
}

// Close shuts the world down cleanly: goodbye frames tell the workers' serve
// loops to exit, the bound world (if any) is poisoned with ErrShutdown, the
// mapping is released once the readers drain, and the file is removed.
// Idempotent.
func (t *ShmHubTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closing.Store(true)
		t.remote.Store(true) // suppress the abort broadcast: goodbye is the signal
		if t.mem != nil && t.started {
			deadline := time.Now().Add(teardownFlushTimeout)
			for r := 1; r < t.p; r++ {
				t.writeControl(r, frameGoodbye, nil, deadline)
			}
		}
		t.unmap()
		os.Remove(t.path)
	})
	return nil
}

// ShmWorkerTransport is one worker process's side of the shared-memory wire:
// exactly one rank lives here, claimed from the shared counter at attach.
type ShmWorkerTransport struct {
	shmEndpoint
}

// DialShmWorker attaches to the shared-memory world at path, polling while
// the hub creates and publishes it (bounded by handshakeTimeout), then
// claims the next free rank and raises its attach flag. The returned
// transport hosts exactly that rank; build the matching plan from meta and
// serve it.
func DialShmWorker(path string) (*ShmWorkerTransport, WorldMeta, error) {
	deadline := time.Now().Add(handshakeTimeout)
	var hdr [shmHeaderBytes]byte
	var f *os.File
	for {
		var err error
		f, err = os.OpenFile(path, os.O_RDWR, 0)
		if err == nil {
			if _, rerr := f.ReadAt(hdr[:], 0); rerr == nil &&
				string(hdr[shmOffMagic:shmOffMagic+len(shmMagic)]) == shmMagic &&
				binary.LittleEndian.Uint32(hdr[shmOffState:]) == shmStateReady {
				break
			}
			f.Close()
		}
		if time.Now().After(deadline) {
			return nil, WorldMeta{}, fmt.Errorf("mpi: shm world at %s not ready within %v", path, handshakeTimeout)
		}
		time.Sleep(dialRetryInterval)
	}
	p := int(binary.LittleEndian.Uint32(hdr[shmOffP:]))
	ringBytes := int(binary.LittleEndian.Uint32(hdr[shmOffRingBytes:]))
	if p < 2 || p > 1<<20 || ringBytes < shmMinRingBytes {
		f.Close()
		return nil, WorldMeta{}, fmt.Errorf("mpi: shm header has p=%d ringBytes=%d", p, ringBytes)
	}
	size := shmFileSize(p, ringBytes)
	if st, err := f.Stat(); err != nil || st.Size() != size {
		f.Close()
		return nil, WorldMeta{}, fmt.Errorf("mpi: shm file is %v bytes, layout wants %d", st.Size(), size)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, WorldMeta{}, fmt.Errorf("mpi: mapping shm file: %w", err)
	}
	rank := int(atomic.AddUint32(shmU32(mem, shmOffClaimed), 1))
	if rank >= p {
		syscall.Munmap(mem)
		f.Close()
		return nil, WorldMeta{}, fmt.Errorf("mpi: all %d worker ranks already claimed", p-1)
	}
	meta := WorldMeta{
		N:          int(binary.LittleEndian.Uint64(mem[shmOffN:])),
		P:          p,
		MaxRetries: int(binary.LittleEndian.Uint32(mem[shmOffMaxRetries:])),
		EtaScale:   math.Float64frombits(binary.LittleEndian.Uint64(mem[shmOffEtaScale:])),
	}
	flags := binary.LittleEndian.Uint32(mem[shmOffFlags:])
	meta.Protected = flags&1 != 0
	meta.Optimized = flags&2 != 0
	t := &ShmWorkerTransport{}
	t.init(path, f, p)
	t.rank = rank
	t.ringBytes = ringBytes
	t.maxElems = meta.N
	t.mem = mem
	atomic.StoreUint32(shmU32(mem, shmOffAttached+4*rank), 1)
	return t, meta, nil
}

// Rank returns the rank this process claimed at attach.
func (t *ShmWorkerTransport) Rank() int { return t.rank }

// Bind implements WorldBinder and starts the ring readers.
func (t *ShmWorkerTransport) Bind(w *World) {
	t.w = w
	t.startReaders()
}

// Close releases the mapping (after the readers drain; the hub owns the
// file's lifetime). Idempotent.
func (t *ShmWorkerTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closing.Store(true)
		t.unmap()
	})
	return nil
}
