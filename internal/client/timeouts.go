package client

import "time"

// Timeouts bound the blocking points of the write path. A zero value for
// any field disables that bound (legacy block-forever behavior, still
// wanted for discrete-event-simulation runs where a virtual clock owns
// all time). All durations are measured on the client's Clock, so they
// work under virtual time too.
type Timeouts struct {
	// Dial bounds transport dials (first datanode of a pipeline and the
	// namenode RPC connection).
	Dial time.Duration
	// SetupAck bounds the wait for the pipeline-setup ack after the
	// write-block header is sent.
	SetupAck time.Duration
	// FNFA bounds the SMARTH wait for the First Node Finish Ack after the
	// block is fully streamed.
	FNFA time.Duration
	// AckProgress is the per-operation progress bound while a pipeline
	// drains: each ack read and each packet write must complete within
	// it. It is a progress timeout, not a whole-block budget, so large
	// blocks are fine as long as bytes keep moving.
	AckProgress time.Duration
	// RPCCall bounds each namenode RPC attempt (retries get a fresh
	// budget).
	RPCCall time.Duration
	// ReadProgress is the read-side analog of AckProgress: the
	// per-operation progress bound while a block read drains. It covers
	// the read-header write and each packet read, so a replica that
	// accepts the connection and then goes silent trips failover instead
	// of pinning the reader forever.
	ReadProgress time.Duration
}

// DefaultTimeouts returns the production defaults. They are deliberately
// generous: tight enough that a wedged peer is detected well before a
// human notices, loose enough that a loaded-but-live cluster never trips
// them.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		Dial:         10 * time.Second,
		SetupAck:     15 * time.Second,
		FNFA:         60 * time.Second,
		AckProgress:  30 * time.Second,
		RPCCall:      15 * time.Second,
		ReadProgress: 30 * time.Second,
	}
}

// NoTimeouts returns an all-disabled Timeouts: every blocking point
// waits forever, matching the pre-timeout behavior the DES figures
// depend on.
func NoTimeouts() Timeouts { return Timeouts{} }
