package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ftfft/internal/fault"
)

func TestPointToPoint(t *testing.T) {
	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []complex128{1, 2, 3}
			c.Send(1, 7, data, nil)
			return nil
		}
		buf := make([]complex128, 3)
		c.Recv(0, 7, buf)
		for i, want := range []complex128{1, 2, 3} {
			if buf[i] != want {
				return errors.New("payload mismatch")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []complex128{10}, nil)
			c.Send(1, 2, []complex128{20}, nil)
			return nil
		}
		b2 := make([]complex128, 1)
		b1 := make([]complex128, 1)
		c.Recv(0, 2, b2) // receive the later tag first
		c.Recv(0, 1, b1)
		if b1[0] != 10 || b2[0] != 20 {
			return errors.New("tag matching failed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParkedMessageReleased receives tags out of order, so the first message
// is parked in the lane's pending queue and matched from there: once it is
// matched, no slot of the queue's backing array may still reference it — a
// stale copy would keep its pooled payload reachable after the pool let go.
func TestParkedMessageReleased(t *testing.T) {
	w := NewWorld(2, nil)
	c0, c1 := w.Endpoint(0), w.Endpoint(1)
	c0.Send(1, 1, []complex128{10}, nil)
	c0.Send(1, 2, []complex128{20}, nil)
	b := make([]complex128, 1)
	if _, _, err := c1.Recv(0, 2, b); err != nil || b[0] != 20 {
		t.Fatalf("tag 2: %v %v", b[0], err)
	}
	if _, _, err := c1.Recv(0, 1, b); err != nil || b[0] != 10 {
		t.Fatalf("tag 1: %v %v", b[0], err)
	}
	q := w.mail[1*w.p+0].pending
	for i, m := range q[:cap(q)] {
		if m.Data != nil || m.pb != nil {
			t.Fatalf("pending slot %d still references a delivered message", i)
		}
	}
}

func TestChecksumsTravelWithMessage(t *testing.T) {
	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			cs := [2]complex128{complex(5, 0), complex(6, 0)}
			c.Send(1, 0, []complex128{1}, &cs)
			return nil
		}
		buf := make([]complex128, 1)
		cs, has, err := c.Recv(0, 0, buf)
		if err != nil {
			return err
		}
		if !has || cs[0] != 5 || cs[1] != 6 {
			return errors.New("checksums lost in transit")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []complex128{1}
			req := c.Isend(1, 0, data, nil)
			data[0] = 999 // mutate after send; receiver must see 1
			_ = req
			return nil
		}
		buf := make([]complex128, 1)
		c.Recv(0, 0, buf)
		if buf[0] != 1 {
			return errors.New("send did not copy payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllExchange(t *testing.T) {
	p := 4
	err := Run(p, nil, func(c *Comm) error {
		// Rank r sends value r*10+dst to each dst.
		for _, dst := range TransposeSchedule(c.Rank(), p) {
			c.Send(dst, 3, []complex128{complex(float64(c.Rank()*10+dst), 0)}, nil)
		}
		for src := 0; src < p; src++ {
			buf := make([]complex128, 1)
			c.Recv(src, 3, buf)
			want := complex(float64(src*10+c.Rank()), 0)
			if buf[0] != want {
				return errors.New("all-to-all mismatch")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	p := 8
	counter := make(chan int, p*2)
	err := Run(p, nil, func(c *Comm) error {
		counter <- 1
		c.Barrier()
		// After the barrier every rank must have deposited its token.
		if len(counter) < p {
			return errors.New("barrier released early")
		}
		c.Barrier() // reusable
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransposeScheduleProperties(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 3, 6} {
		for r := 0; r < p; r++ {
			sched := TransposeSchedule(r, p)
			seen := make(map[int]bool)
			for _, dst := range sched {
				if dst < 0 || dst >= p || seen[dst] {
					t.Fatalf("p=%d rank=%d: bad schedule %v", p, r, sched)
				}
				seen[dst] = true
			}
			if sched[0] != r && p&(p-1) == 0 {
				t.Fatalf("p=%d rank=%d: XOR schedule should start with self", p, r)
			}
		}
	}
	// XOR schedules are pairwise: at step i, rank a talks to a^i which talks
	// back to a.
	p := 8
	for i := 0; i < p; i++ {
		for a := 0; a < p; a++ {
			b := TransposeSchedule(a, p)[i]
			if TransposeSchedule(b, p)[i] != a {
				t.Fatalf("XOR schedule not a pairing at step %d", i)
			}
		}
	}
}

func TestMessageFaultInjection(t *testing.T) {
	sched := fault.NewSchedule(1, fault.Fault{
		Site: fault.SiteMessage, Rank: 0, Index: 1, Mode: fault.AddConstant, Value: 9,
	})
	err := Run(2, sched, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []complex128{1, 2, 3}, nil)
			return nil
		}
		buf := make([]complex128, 3)
		c.Recv(0, 0, buf)
		if buf[1] != 11 {
			return errors.New("transit fault not applied")
		}
		if buf[0] != 1 || buf[2] != 3 {
			return errors.New("wrong elements corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sched.AllFired() {
		t.Fatal("fault did not fire")
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(3, nil, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	sentinel := errors.New("rank 1 failed")
	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 1 {
			// Fail without ever sending: rank 0 would block forever
			// without the poison pill.
			c.w.Abort(sentinel)
			return sentinel
		}
		buf := make([]complex128, 1)
		_, _, err := c.Recv(1, 0, buf)
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel abort cause, got %v", err)
	}
}

func TestAbortUnblocksBarrier(t *testing.T) {
	sentinel := errors.New("abort mid-barrier")
	err := Run(3, nil, func(c *Comm) error {
		if c.Rank() == 2 {
			c.w.Abort(sentinel)
			return sentinel
		}
		return c.Barrier()
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel abort cause, got %v", err)
	}
}

// TestRankPanicAbortsPeers: a panicking rank body must poison the world like
// any failing rank — its peers unwind out of blocked receives with the
// contained panic as the cause instead of deadlocking forever.
func TestRankPanicAbortsPeers(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(2, nil, func(c *Comm) error {
			if c.Rank() == 1 {
				panic("rank body bug")
			}
			buf := make([]complex128, 1)
			_, _, err := c.Recv(1, 0, buf) // blocks forever without the abort
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("want contained panic as abort cause, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("panicking rank deadlocked its peer")
	}
}

func TestAbortNilCauseAndIdempotence(t *testing.T) {
	w := NewWorld(2, nil)
	w.Abort(nil)
	w.Abort(errors.New("second cause must lose"))
	if !w.Aborted() {
		t.Fatal("world not marked aborted")
	}
	_, _, err := w.Endpoint(0).Recv(1, 0, make([]complex128, 1))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	// Sends into an aborted world must not block or leak.
	w.Endpoint(1).Send(0, 0, make([]complex128, 1), nil)
}

func TestAbortedRecvDeliversPendingMatches(t *testing.T) {
	w := NewWorld(2, nil)
	w.Endpoint(0).Send(1, 5, []complex128{42}, nil)
	w.Abort(errors.New("late abort"))
	// The message was already queued; a racing Recv may return either the
	// payload or the abort error, but must never hang.
	buf := make([]complex128, 1)
	_, _, err := w.Endpoint(1).Recv(0, 5, buf)
	if err == nil && buf[0] != 42 {
		t.Fatalf("clean receive with wrong payload %v", buf[0])
	}
}

func TestEndpointValidation(t *testing.T) {
	w := NewWorld(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range endpoint should panic")
		}
	}()
	w.Endpoint(5)
}
