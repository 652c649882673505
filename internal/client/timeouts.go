package client

import "time"

// Timeouts bound the client's blocking points. Every wait is bounded: a
// zero (or negative) field takes its DefaultTimeouts value. All durations
// are measured on the client's Clock, so they work under virtual time
// too.
type Timeouts struct {
	// Progress bounds every single step on a data connection, write and
	// read side alike: the dial, the operation header, the setup ack, and
	// then each packet write, ack read or packet read. It is a progress
	// timeout, not a whole-block budget, so large blocks are fine as long
	// as bytes keep moving; a replica or pipeline that accepts the
	// connection and then goes silent trips recovery or failover instead
	// of pinning the caller forever. SMARTH's wait for the FNFA is a run
	// of ack reads, so it is bounded here too.
	Progress time.Duration
	// RPC bounds the namenode dial and each namenode RPC attempt (retries
	// get a fresh budget).
	RPC time.Duration
}

// DefaultTimeouts returns the production defaults. They are deliberately
// generous: tight enough that a wedged peer is detected well before a
// human notices, loose enough that a loaded-but-live cluster never trips
// them.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		Progress: 30 * time.Second,
		RPC:      15 * time.Second,
	}
}

// orDefaults fills every unset field from DefaultTimeouts.
func (t Timeouts) orDefaults() Timeouts {
	d := DefaultTimeouts()
	if t.Progress <= 0 {
		t.Progress = d.Progress
	}
	if t.RPC <= 0 {
		t.RPC = d.RPC
	}
	return t
}
