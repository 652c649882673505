package clock

import (
	"testing"
	"time"
)

func TestRealClock(t *testing.T) {
	before := time.Now()
	now := System.Now()
	after := time.Now()
	if now.Before(before) || now.After(after) {
		t.Fatalf("Now() = %v outside [%v, %v]", now, before, after)
	}

	start := time.Now()
	System.Sleep(10 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("Sleep(10ms) returned after %v", elapsed)
	}

	select {
	case <-System.After(5 * time.Millisecond):
	case <-time.After(2 * time.Second):
		t.Fatal("After(5ms) never fired")
	}
}

// TestTimerRecyclesWithoutStaleTicks: a timer released before it fired is
// reused by the next NewTimer, and that next wait sees only its own
// expiry — never a tick left over from the earlier, longer-armed use.
func TestTimerRecyclesWithoutStaleTicks(t *testing.T) {
	for i := 0; i < 25; i++ {
		early := NewTimer(System, time.Millisecond)
		early.Stop() // released long before it could fire, usually
		tm := NewTimer(System, 20*time.Millisecond)
		start := time.Now()
		<-tm.C
		tm.Stop()
		if d := time.Since(start); d < 15*time.Millisecond {
			t.Fatalf("round %d: timer armed for 20ms delivered after %v", i, d)
		}
	}
}

func TestTimerFollowsItsClock(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	tm := NewTimer(m, time.Second)
	defer tm.Stop()
	select {
	case <-tm.C:
		t.Fatal("fired before the manual clock advanced")
	case <-time.After(10 * time.Millisecond):
	}
	m.Advance(time.Second)
	select {
	case <-tm.C:
	case <-time.After(2 * time.Second):
		t.Fatal("did not fire when the manual clock passed its bound")
	}
}
