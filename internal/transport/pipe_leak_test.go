package transport

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// Closing a pipe must release the waker goroutines its blocked,
// deadline-armed operations started — at once, not when the deadline
// would have fired. 200 pipes, each with a reader parked on an empty
// buffer and a writer parked on a full one under an hour-long deadline.
func TestPipeBufCloseReleasesWakers(t *testing.T) {
	clocks := map[string]clock.Clock{
		"real":    clock.System,
		"virtual": clock.NewManual(time.Unix(0, 0)),
	}
	for name, clk := range clocks {
		clk := clk
		t.Run(name, func(t *testing.T) {
			const pipes = 200
			baseline := settledGoroutines()
			deadline := clk.Now().Add(time.Hour)
			waitWaker := func(b *pipeBuf, running *bool) {
				t.Helper()
				for start := time.Now(); ; time.Sleep(time.Millisecond) {
					b.mu.Lock()
					up := *running
					b.mu.Unlock()
					if up {
						return
					}
					if time.Since(start) > 5*time.Second {
						t.Fatal("blocked operation never started its waker")
					}
				}
			}
			opsDone := make(chan struct{}, 2*pipes)
			var empties, fulls []*pipeBuf
			for i := 0; i < pipes; i++ {
				empty, full := newPipeBuf(16, clk), newPipeBuf(16, clk)
				empty.SetReadDeadline(deadline)
				full.SetWriteDeadline(deadline)
				go func() {
					empty.Read(make([]byte, 1))
					opsDone <- struct{}{}
				}()
				go func() {
					full.Write(make([]byte, 32))
					opsDone <- struct{}{}
				}()
				empties, fulls = append(empties, empty), append(fulls, full)
			}
			for i := range empties {
				waitWaker(empties[i], &empties[i].rWaker)
				waitWaker(fulls[i], &fulls[i].wWaker)
			}
			if n := runtime.NumGoroutine(); n < baseline+4*pipes {
				t.Fatalf("%d goroutines with %d pipes blocked, want at least %d", n, pipes, baseline+4*pipes)
			}
			for i := range empties {
				empties[i].CloseWrite()
				fulls[i].CloseRead()
			}
			for i := 0; i < 2*pipes; i++ {
				<-opsDone
			}
			for start := time.Now(); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("%d goroutines still alive after closing every pipe, baseline %d: wakers are sleeping out the deadline",
						runtime.NumGoroutine(), baseline)
				}
			}
		})
	}
}

// A waker that exits because its pipe ended must stop its timer: on the
// system clock a timer left armed stays pending, with its channel, for
// the rest of the deadline, and a pipeline opens pipes for every block.
// So a read blocked under an hour-long deadline may cost the waker's
// goroutine over a plain blocked read, and no timer.
func TestPipeBufWakerRecyclesTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	buf := make([]byte, 1)
	waking := func(b *pipeBuf) bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.rWaker
	}
	blockedRead := func(deadline bool) func() {
		return func() {
			b := newPipeBuf(16, clock.System)
			if deadline {
				b.SetReadDeadline(time.Now().Add(time.Hour))
			}
			done := make(chan struct{})
			go func() {
				b.Read(buf)
				close(done)
			}()
			for deadline && !waking(b) {
				runtime.Gosched()
			}
			b.CloseWrite()
			<-done
			for waking(b) {
				runtime.Gosched()
			}
		}
	}
	plain := testing.AllocsPerRun(100, blockedRead(false))
	armed := testing.AllocsPerRun(100, blockedRead(true))
	if armed-plain >= 2 {
		t.Fatalf("a read blocked under a deadline allocates %v, a plain one %v: the waker buys a timer per sleep", armed, plain)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms (or a second has passed): a goroutine of the previous test or
// subtest that is still exiting when the count is sampled once makes the
// baseline one too high, and every comparison against it off by one.
func settledGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for start := since; time.Since(since) < 20*time.Millisecond && time.Since(start) < time.Second; time.Sleep(time.Millisecond) {
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// TestMemNetworkRingAlloc: a connection's rings come from bufpool and go
// back when it closes, so 200 dial → write → close cycles buy a few
// rings, not two apiece. One P, so that sync.Pool's per-P caches cannot
// strand a returned ring where the next dial does not look.
func TestMemNetworkRingAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cycles, ring = 200, 256 << 10
	n := NewMemNetwork(nil)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	msg := make([]byte, 64<<10)
	served := make(chan error)
	go func() {
		buf := make([]byte, len(msg))
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_, err = io.ReadFull(c, buf)
			if err == nil {
				_, err = c.Write(buf[:1]) // the reverse direction takes a ring too
			}
			c.Close()
			served <- err
		}
	}()
	cycle := func() {
		c, err := n.Dial("cli", "srv")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4*ring {
		t.Fatalf("%d connections allocated %d B, want < %d (4 rings): rings are not recycled", cycles, got, 4*ring)
	}
}

// TestCloseMidWriteReleasesRingOnce closes connections while a writer
// is blocked on a full ring and a reader is draining it. Both ends close
// at once, from the writer's side and the reader's, and again after, so
// every ring meets a concurrent CloseRead and a repeated Close; had any
// of them reached the pool twice, two later connections would share
// storage and deliver each other's bytes.
func TestCloseMidWriteReleasesRingOnce(t *testing.T) {
	n := NewMemNetwork(nil)
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dial := func() (cli, srv Conn) {
		t.Helper()
		cli, err := n.Dial("cli", "srv")
		if err != nil {
			t.Fatal(err)
		}
		srv, err = l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return cli, srv
	}
	chunk := make([]byte, 64<<10)
	for i := 0; i < 50; i++ {
		cli, srv := dial()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // fills the ring, then blocks mid-write until the close
			defer wg.Done()
			for {
				if _, err := cli.Write(chunk); err != nil {
					return
				}
			}
		}()
		firstRead := make(chan struct{})
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for first := true; ; first = false {
				if _, err := srv.Read(buf); err != nil {
					return
				}
				if first {
					close(firstRead)
				}
			}
		}()
		<-firstRead
		go cli.Close()
		srv.Close()
		wg.Wait()
		cli.Close()
		srv.Close()
	}

	// Two live connections at once, each ring filled to the brim.
	const ring = 256 << 10
	cliA, srvA := dial()
	cliB, srvB := dial()
	defer cliA.Close()
	defer srvA.Close()
	defer cliB.Close()
	defer srvB.Close()
	a, b := bytes.Repeat([]byte{0xAA}, ring), bytes.Repeat([]byte{0xBB}, ring)
	if _, err := cliA.Write(a); err != nil {
		t.Fatal(err)
	}
	if _, err := cliB.Write(b); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ring)
	if _, err := io.ReadFull(srvA, got); err != nil || !bytes.Equal(got, a) {
		t.Fatalf("connection A delivered bytes it was not sent (err %v): its ring is shared", err)
	}
	if _, err := io.ReadFull(srvB, got); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("connection B delivered bytes it was not sent (err %v): its ring is shared", err)
	}
}
