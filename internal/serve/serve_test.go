package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftfft/internal/checksum"
	"ftfft/internal/core"
	"ftfft/internal/mpi"
)

// stubTransform is a deterministic fake plan: Forward negates, Inverse
// halves. delay simulates a slow transform; fail forces an error.
type stubTransform struct {
	calls atomic.Int64
	delay time.Duration
	fail  error
	rep   core.Report
}

func (s *stubTransform) Forward(ctx context.Context, dst, src []complex128) (core.Report, error) {
	s.calls.Add(1)
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return core.Report{}, ctx.Err()
		}
	}
	if s.fail != nil {
		return s.rep, s.fail
	}
	for i, v := range src {
		dst[i] = -v
	}
	return s.rep, nil
}

func (s *stubTransform) Inverse(ctx context.Context, dst, src []complex128) (core.Report, error) {
	s.calls.Add(1)
	for i, v := range src {
		dst[i] = v / 2
	}
	return s.rep, nil
}

type stubReal struct{}

func (stubReal) Forward(ctx context.Context, dst []complex128, src []float64) (core.Report, error) {
	for k := range dst {
		dst[k] = complex(src[k%len(src)], float64(k))
	}
	return core.Report{}, nil
}

func (stubReal) Inverse(ctx context.Context, dst []float64, src []complex128) (core.Report, error) {
	for i := range dst {
		dst[i] = real(src[i%len(src)]) + float64(i)
	}
	return core.Report{}, nil
}

// stubConfig returns a server config whose builders hand out stub plans,
// recording every build in builds.
func stubConfig(builds *atomic.Int64, tweak func(*stubTransform)) Config {
	return Config{
		NewTransform: func(n int, dims []int, protection byte) (Transformer, error) {
			if builds != nil {
				builds.Add(1)
			}
			st := &stubTransform{}
			if tweak != nil {
				tweak(st)
			}
			return st, nil
		},
		NewReal: func(n int, protection byte) (RealTransformer, error) {
			if builds != nil {
				builds.Add(1)
			}
			return stubReal{}, nil
		},
	}
}

func listenStub(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Listen("unix", filepath.Join(t.TempDir(), "s.sock"), cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialStub(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().Network(), s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testInput(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i)+0.5, -float64(i)*0.25)
	}
	return x
}

func TestServeEndToEnd(t *testing.T) {
	s := listenStub(t, stubConfig(nil, nil))
	c := dialStub(t, s)

	const n = 32
	src := testInput(n)
	dst := make([]complex128, n)
	rep, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: n, Data: src}, dst, nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if rep != (core.Report{}) {
		t.Fatalf("clean request came back with report %+v", rep)
	}
	for i := range dst {
		if dst[i] != -src[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], -src[i])
		}
	}

	// Inverse shares the forward plan; real ops get their own.
	rep, err = c.Do(context.Background(), Request{Op: mpi.OpInverse, N: n, Data: src}, dst, nil)
	if err != nil || dst[3] != src[3]/2 {
		t.Fatalf("inverse: %v (dst[3]=%v)", err, dst[3])
	}
	_ = rep

	rsrc := make([]float64, n)
	for i := range rsrc {
		rsrc[i] = float64(i) * 1.5
	}
	spec := make([]complex128, n/2+1)
	if _, err := c.Do(context.Background(), Request{Op: mpi.OpRealForward, N: n, Real: rsrc}, spec, nil); err != nil {
		t.Fatalf("real forward: %v", err)
	}
	if spec[5] != complex(rsrc[5], 5) {
		t.Fatalf("spec[5] = %v", spec[5])
	}
	rdst := make([]float64, n)
	if _, err := c.Do(context.Background(), Request{Op: mpi.OpRealInverse, N: n, Data: spec[:n/2+1]}, nil, rdst); err != nil {
		t.Fatalf("real inverse: %v", err)
	}

	if builds, _, size := s.CacheStats(); builds != 2 || size != 2 {
		t.Fatalf("cache stats after 4 requests over 2 plans: builds=%d size=%d", builds, size)
	}
}

// TestPlanCacheLRU drives the cache directly: bounds hold under churn and
// recency governs eviction.
func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(3)
	built := 0
	get := func(n int) *planEntry {
		key := planKey{n: n}
		e, err := c.get(key, func() (*planEntry, error) {
			built++
			return newPlanEntry(key, &stubTransform{}, nil), nil
		})
		if err != nil {
			t.Fatalf("get(%d): %v", n, err)
		}
		return e
	}

	get(2)
	get(4)
	get(8)
	if built != 3 {
		t.Fatalf("3 distinct keys built %d plans", built)
	}
	e2 := get(2) // hit: 2 becomes MRU
	if built != 3 {
		t.Fatalf("hit rebuilt: %d builds", built)
	}
	get(16) // evicts LRU = 4
	if _, _, size := c.stats(); size != 3 {
		t.Fatalf("cache size %d, want 3", size)
	}
	get(2) // still cached (was MRU before 16)
	if built != 4 {
		t.Fatalf("expected 4 builds, got %d", built)
	}
	get(4) // evicted: rebuilds
	if built != 5 {
		t.Fatalf("evicted key did not rebuild: %d builds", built)
	}
	if e2b := get(2); e2b != e2 {
		t.Fatalf("key 2 rebuilt despite recency")
	}
	if _, ev, size := c.stats(); size != 3 || ev < 2 {
		t.Fatalf("after churn: size=%d evictions=%d", size, ev)
	}

	// Sustained churn over many more keys than capacity.
	for round := 0; round < 4; round++ {
		for n := 1; n <= 32; n++ {
			get(n * 2)
		}
	}
	if _, _, size := c.stats(); size != 3 {
		t.Fatalf("churn grew the cache to %d entries", size)
	}
}

// TestPlanCacheHitNoAllocs pins the acceptance criterion: the cache-hit
// path allocates no per-request plan state.
func TestPlanCacheHitNoAllocs(t *testing.T) {
	c := newPlanCache(4)
	key := planKey{n: 64}
	if _, err := c.get(key, func() (*planEntry, error) {
		return newPlanEntry(key, &stubTransform{}, nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		e, err := c.get(key, func() (*planEntry, error) {
			t.Error("hit path invoked the builder")
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		s := e.getScratch()
		e.putScratch(s)
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocated %.1f times per request", allocs)
	}
}

func TestServeConcurrentClients(t *testing.T) {
	var builds atomic.Int64
	s := listenStub(t, stubConfig(&builds, nil))

	const clients, reqs = 8, 20
	sizes := []int{16, 32, 64}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(s.Addr().Network(), s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < reqs; r++ {
				n := sizes[(ci+r)%len(sizes)]
				src := testInput(n)
				dst := make([]complex128, n)
				if _, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: n, Data: src}, dst, nil); err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", ci, r, err)
					return
				}
				for i := range dst {
					if dst[i] != -src[i] {
						errs <- fmt.Errorf("client %d req %d: dst[%d] = %v", ci, r, i, dst[i])
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All clients share plans through the cache: at most one build per
	// size per concurrent first-request race, far fewer than one per call.
	if b := builds.Load(); b > int64(len(sizes)*clients) || b < int64(len(sizes)) {
		t.Fatalf("%d plan builds for %d sizes", b, len(sizes))
	}
}

// corruptElements returns a wire-fault hook flipping bits in k distinct
// payload elements on every apply-th request (1 = every request).
func corruptElements(k int, fired *atomic.Int64) func([]byte) {
	return func(payload []byte) {
		if fired != nil {
			fired.Add(1)
		}
		for e := 0; e < k; e++ {
			off := e * 16 * (len(payload) / (16 * k))
			payload[off] ^= 0x40
			payload[off+7] ^= 0x01
		}
	}
}

func TestServeWireFaultRepaired(t *testing.T) {
	s := listenStub(t, stubConfig(nil, nil))
	c := dialStub(t, s)

	const n = 64
	src := testInput(n)
	want := make([]complex128, n)
	for i := range want {
		want[i] = -src[i]
	}

	c.InjectWireFaults(corruptElements(1, nil))
	dst := make([]complex128, n)
	rep, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: n, Data: src}, dst, nil)
	if err != nil {
		t.Fatalf("corrupted request not repaired: %v", err)
	}
	if rep.Detections != 1 || rep.MemCorrections != 1 || rep.Uncorrectable {
		t.Fatalf("repair report %+v", rep)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("repaired output differs at %d: %v vs %v", i, dst[i], want[i])
		}
	}
}

func TestServeWireFaultUncorrectable(t *testing.T) {
	s := listenStub(t, stubConfig(nil, nil))
	c := dialStub(t, s)

	const n = 64
	c.InjectWireFaults(corruptElements(2, nil))
	dst := make([]complex128, n)
	rep, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: n, Data: testInput(n)}, dst, nil)
	if !errors.Is(err, core.ErrUncorrectable) {
		t.Fatalf("2-element corruption: err = %v, want ErrUncorrectable", err)
	}
	if !rep.Uncorrectable {
		t.Fatalf("reject report %+v lacks Uncorrectable", rep)
	}

	// The connection survives a rejected request.
	c.InjectWireFaults(nil)
	src := testInput(n)
	if _, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: n, Data: src}, dst, nil); err != nil {
		t.Fatalf("clean request after reject: %v", err)
	}
}

func TestServeTransformFailure(t *testing.T) {
	s := listenStub(t, stubConfig(nil, func(st *stubTransform) {
		st.fail = fmt.Errorf("scheme exhausted: %w", core.ErrUncorrectable)
		st.rep = core.Report{Detections: 3, Uncorrectable: true}
	}))
	c := dialStub(t, s)

	const n = 16
	dst := make([]complex128, n)
	_, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: n, Data: testInput(n)}, dst, nil)
	if !errors.Is(err, core.ErrUncorrectable) {
		t.Fatalf("uncorrectable transform: err = %v", err)
	}
}

func TestServeInvalidRequests(t *testing.T) {
	s := listenStub(t, stubConfig(nil, nil))
	c := dialStub(t, s)
	dst := make([]complex128, 64)
	rdst := make([]float64, 64)
	bg := context.Background()

	cases := []Request{
		{Op: mpi.OpForward, N: 8, Data: testInput(4)},                    // payload/n mismatch
		{Op: mpi.OpForward, N: 8, Dims: []int{3, 2}, Data: testInput(8)}, // dims product
		{Op: mpi.OpRealForward, N: 7, Real: make([]float64, 7)},          // odd real size
		{Op: mpi.ServeOp(99), N: 8, Data: testInput(8)},                  // unknown op
		{Op: mpi.OpForward, N: 0},                                        // empty
	}
	for i, req := range cases {
		if _, err := c.Do(bg, req, dst, rdst); err == nil {
			t.Fatalf("case %d accepted: %+v", i, req)
		}
	}

	// The connection stays usable after every rejected request.
	src := testInput(16)
	if _, err := c.Do(bg, Request{Op: mpi.OpForward, N: 16, Data: src}, dst, nil); err != nil {
		t.Fatalf("clean request after rejects: %v", err)
	}
}

// TestServeMalformedFrames drives a raw connection past the handshake and
// then writes hostile bytes: the server must drop the connection without
// panicking, and stay healthy for other clients.
func TestServeMalformedFrames(t *testing.T) {
	s := listenStub(t, stubConfig(nil, nil))

	hostile := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		make([]byte, 200), // zero frame type
		func() []byte { // oversized element count
			b, _ := mpi.AppendServeRequestPair(nil, &mpi.ServeRequest{ID: 1, Op: mpi.OpForward, N: 4, Data: make([]complex128, 4)}, checksum.Weights(4))
			b[16], b[17], b[18] = 0xff, 0xff, 0xff
			return b
		}(),
	}
	for i, garbage := range hostile {
		conn, err := net.Dial(s.Addr().Network(), s.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := conn.Write(mpi.AppendServeHello(nil)); err != nil {
			t.Fatalf("hello: %v", err)
		}
		welcome := make([]byte, 64)
		if _, err := conn.Read(welcome); err != nil {
			t.Fatalf("welcome: %v", err)
		}
		conn.Write(garbage)
		// The server must close the connection (read returns EOF/err),
		// not hang or crash.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
		_ = i
	}

	// A well-behaved client still gets service.
	c := dialStub(t, s)
	dst := make([]complex128, 8)
	if _, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: 8, Data: testInput(8)}, dst, nil); err != nil {
		t.Fatalf("server unhealthy after hostile frames: %v", err)
	}
}

func TestServeGracefulDrain(t *testing.T) {
	s := listenStub(t, stubConfig(nil, func(st *stubTransform) { st.delay = 100 * time.Millisecond }))
	c := dialStub(t, s)

	const n = 16
	src := testInput(n)
	dst := make([]complex128, n)
	inflight := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: n, Data: src}, dst, nil)
		inflight <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the request reach the slow transform

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request did not survive the drain: %v", err)
	}
	for i := range dst {
		if dst[i] != -src[i] {
			t.Fatalf("drained response corrupt at %d", i)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// New connections are refused after drain.
	if _, err := Dial(s.Addr().Network(), s.Addr().String()); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

func TestClientContextCancel(t *testing.T) {
	s := listenStub(t, stubConfig(nil, func(st *stubTransform) { st.delay = 80 * time.Millisecond }))
	c := dialStub(t, s)

	const n = 16
	dst := make([]complex128, n)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Do(ctx, Request{Op: mpi.OpForward, N: n, Data: testInput(n)}, dst, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled call returned %v", err)
	}
	if time.Since(start) > 60*time.Millisecond {
		t.Fatalf("cancellation took %v", time.Since(start))
	}

	// The late response for the canceled id is discarded; the connection
	// keeps working.
	src := testInput(n)
	if _, err := c.Do(context.Background(), Request{Op: mpi.OpForward, N: n, Data: src}, dst, nil); err != nil {
		t.Fatalf("request after cancel: %v", err)
	}
	if dst[2] != -src[2] {
		t.Fatalf("post-cancel response wrong: %v", dst[2])
	}
}

// TestVerifyFloats exercises the real-payload checksum algebra directly:
// repairable single-pair corruption and unrepairable double corruption.
func TestVerifyFloats(t *testing.T) {
	const pairs = 16
	w := testWeights(pairs)
	x := make([]float64, 2*pairs)
	for i := range x {
		x[i] = math.Sqrt(float64(i) + 1)
	}
	stored := floatPair(w, x)
	cs := [2]complex128{stored.D1, stored.D2}

	var rep core.Report
	if err := verifyFloatsPair(w, x, cs, floatPair(w, x), &rep); err != nil || rep.Detections != 0 {
		t.Fatalf("clean verify: %v %+v", err, rep)
	}

	orig := append([]float64(nil), x...)
	x[6] += 3.25 // corrupt pair 3
	rep = core.Report{}
	if err := verifyFloatsPair(w, x, cs, floatPair(w, x), &rep); err != nil {
		t.Fatalf("single corruption not repaired: %v", err)
	}
	if rep.Detections != 1 || rep.MemCorrections != 1 {
		t.Fatalf("repair report %+v", rep)
	}
	for i := range x {
		if math.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], orig[i])
		}
	}

	x[6] += 1.5
	x[20] -= 2.5
	rep = core.Report{}
	if err := verifyFloatsPair(w, x, cs, floatPair(w, x), &rep); !errors.Is(err, core.ErrUncorrectable) {
		t.Fatalf("double corruption: %v", err)
	}
}

func testWeights(n int) []complex128 {
	e := newPlanEntry(planKey{n: 2 * n, real: true}, nil, stubReal{})
	return e.wPairs
}
