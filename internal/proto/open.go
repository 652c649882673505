package proto

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

// ErrSetupRefused is returned by Dialer.Open when the peer answered the
// operation header with a non-success setup status.
var ErrSetupRefused = errors.New("proto: setup refused")

// Dialer opens data connections for one component (a client or a
// datanode). It is the only caller of WriteHeader outside tests, so
// every peer edge — client→datanode for writes and reads, datanode→
// mirror, datanode→re-replication target — runs the same handshake under
// the same bound.
type Dialer struct {
	Network transport.Network
	// Local is the dialing component's name.
	Local string
	// Clock measures Progress.
	Clock clock.Clock
	// Progress bounds the dial and, from then on, every single frame
	// read or write on the conn (a progress bound, not a whole-stream
	// budget). It must be positive.
	Progress time.Duration
	// Metrics, when set, receives the conn's frame-level counters.
	Metrics *obs.ConnMetrics
}

// Arm applies the dialer's per-operation deadlines and metrics to a
// framed conn — one it opened, or one its owner accepted — before the
// conn carries traffic. A stream without deadline support stays unbounded.
func (d *Dialer) Arm(pc *Conn) {
	pc.metrics = d.Metrics
	if pc.d != nil && d.Clock != nil {
		pc.clk, pc.timeout = d.Clock, d.Progress
	}
}

// Open dials addr, sends the operation header and waits for the setup
// ack. On success the armed conn is returned with the ack's statuses
// (closest datanode first), which alias the conn's ack scratch and are
// valid until its next ReadAck. On any failure the conn is closed; when
// the peer refused the setup the error is ErrSetupRefused and the
// statuses say which pipeline position failed.
func (d *Dialer) Open(addr string, op Op, hdr any) (*Conn, []Status, error) {
	conn, err := transport.DialTimeout(d.Network, d.Local, addr, d.Progress, d.Clock)
	if err != nil {
		return nil, nil, err
	}
	pc := NewConn(conn)
	d.Arm(pc)
	if err := pc.WriteHeader(op, hdr); err != nil {
		pc.Close()
		return nil, nil, err
	}
	ack, err := pc.ReadAck()
	if err == nil && ack.Kind != AckHeader {
		err = fmt.Errorf("proto: unexpected %v ack during setup", ack.Kind)
	}
	if err != nil {
		pc.Close()
		return nil, nil, err
	}
	if !ack.OK() {
		pc.Close()
		return nil, ack.Statuses, ErrSetupRefused
	}
	return pc, ack.Statuses, nil
}
