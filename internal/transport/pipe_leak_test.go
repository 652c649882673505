package transport

import (
	"runtime"
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
			baseline := runtime.NumGoroutine()
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
