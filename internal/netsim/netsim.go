// Package netsim models a cluster network on the discrete-event engine.
// Every constrained resource — a NIC transmit side, a NIC receive side, a
// per-node cross-rack shaper (the paper's `tc` throttle), a disk — is a
// FIFO rate server: a queue that serializes jobs at a fixed byte rate.
// Contention between concurrent pipelines falls out of the queueing: two
// flows sharing a NIC interleave packets through the same server and each
// sees roughly half the bandwidth, matching how TCP flows share a link at
// packet granularity.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/des"
)

// Server is a FIFO rate server: jobs are serialized at its byte rate
// in arrival order. A non-positive rate means infinite (no delay).
//
// A job may be enqueued before it arrives — at its arrival time, later
// than now — but only by a server's one feeder, whose jobs reach it in a
// fixed order (DESIGN.md §15): arrival times never decrease, and Enqueue
// panics on one that does. Enqueue only times a job; the jobs that fire
// are Deliver's packets, each an entry in the ring of the server it waits
// at. Completion times never decrease along a ring, so a server holds one
// slot in the engine's queue, for the head. Each job's tie-break position
// is reserved when it is enqueued (des.Engine.ReserveSeq), where a per-job
// event would have taken it: jobs of different servers that complete at
// the same instant still fire in enqueue order.
type Server struct {
	eng       *des.Engine
	name      string
	rate      float64 // bytes per second
	busyUntil time.Duration
	lastAt    time.Duration // the latest arrival time enqueued
	// Bytes is the total number of bytes served (for utilization stats).
	Bytes int64
	// lastN and lastDur cache the service time of the last job size:
	// nearly every job is one packet. The zero value is right (a 0-byte
	// job takes no time), and SetRate returns the cache to it.
	lastN   int64
	lastDur time.Duration

	// The pending jobs, oldest first: a ring of power-of-two size holding
	// queued entries from head on. The oldest is the one in the engine's
	// queue.
	jobs   []job
	head   int
	queued int
	fire   func() // s.complete, bound once
}

// job is one packet queued at a server: when it finishes there, its
// reserved position among events at that instant, its size, the stages it
// takes next (the destination's CrossIn, if crossed, and Ingress) and
// whom to hand it to after the last.
type job struct {
	at    time.Duration
	seq   uint64
	n     int64
	ahead [2]*Server
	done  func(tag int)
	tag   int
}

// NewServer returns a rate server on the network's engine. Server records
// are recycled across Reset — the k-th server made after one is the k-th
// made before it, job ring and all. A ring is as deep as the worst backlog
// its server saw, so a run that builds the same cluster in the same order
// finds its rings about the right size already.
func (nw *Network) NewServer(name string, bytesPerSecond float64) *Server {
	if nw.used == len(nw.servers) {
		s := &Server{}
		s.fire = s.complete
		nw.servers = append(nw.servers, s)
	}
	s := nw.servers[nw.used]
	nw.used++
	*s = Server{eng: nw.eng, name: name, rate: bytesPerSecond, jobs: s.jobs, fire: s.fire}
	return s
}

// SetRate changes the rate; jobs already enqueued keep their completion
// times (rate changes apply to later Enqueue calls).
func (s *Server) SetRate(bytesPerSecond float64) {
	s.rate = bytesPerSecond
	s.lastN, s.lastDur = 0, 0
}

// Enqueue times a job of n bytes that arrives at time at (clamped to now)
// and returns the time it finishes serializing through this server.
func (s *Server) Enqueue(at time.Duration, n int64) time.Duration {
	return s.enqueue(at, job{n: n})
}

// enqueue takes j arriving at time at. A job with a done callback is
// queued in the ring to fire then; one without is only timed.
func (s *Server) enqueue(at time.Duration, j job) time.Duration {
	if now := s.eng.Now(); at < now {
		at = now
	}
	if at < s.lastAt {
		panic(fmt.Sprintf("netsim: %v: a job arriving at %v enqueued after one arriving at %v", s, at, s.lastAt))
	}
	s.lastAt = at
	start := max(s.busyUntil, at)
	if j.n != s.lastN {
		s.lastN, s.lastDur = j.n, 0
		if s.rate > 0 {
			s.lastDur = time.Duration(float64(j.n) / s.rate * float64(time.Second))
		}
	}
	s.busyUntil = start + s.lastDur
	s.Bytes += j.n
	if j.done == nil {
		return s.busyUntil
	}
	if s.queued == len(s.jobs) {
		s.grow()
	}
	j.at, j.seq = s.busyUntil, s.eng.ReserveSeq()
	s.jobs[(s.head+s.queued)&(len(s.jobs)-1)] = j
	s.queued++
	if s.queued == 1 {
		s.eng.AtSeq(j.at, j.seq, s.fire)
	}
	return s.busyUntil
}

// grow doubles the ring, unwrapping it so the oldest job is at index 0.
func (s *Server) grow() {
	bigger := make([]job, max(8, 2*len(s.jobs)))
	n := copy(bigger, s.jobs[s.head:])
	copy(bigger[n:], s.jobs[:s.head])
	s.jobs, s.head = bigger, 0
}

// complete fires the oldest job. Its successor enters the engine's queue
// first, so a job that enqueues on this server again finds the server in
// a consistent state. Then the job takes its next stage, arriving now, or
// is handed over after the last.
func (s *Server) complete() {
	j := s.jobs[s.head]
	s.jobs[s.head] = job{}
	s.head = (s.head + 1) & (len(s.jobs) - 1)
	s.queued--
	if s.queued > 0 {
		next := &s.jobs[s.head]
		s.eng.AtSeq(next.at, next.seq, s.fire)
	}
	if stage := j.ahead[0]; stage != nil {
		j.ahead = [2]*Server{j.ahead[1]}
		stage.enqueue(s.eng.Now(), j)
		return
	}
	j.done(j.tag)
}

func (s *Server) String() string {
	return fmt.Sprintf("server(%s, %.0f B/s)", s.name, s.rate)
}

// Node is one machine: NIC transmit/receive servers, an optional
// cross-rack shaper pair, and a disk server.
type Node struct {
	nw   *Network
	Name string
	Rack string
	// Egress and Ingress model the full-duplex NIC.
	Egress  *Server
	Ingress *Server
	// CrossOut and CrossIn, when non-nil, additionally shape traffic to
	// and from other racks (tc on the rack uplink).
	CrossOut *Server
	CrossIn  *Server
	// Disk serializes local replica writes (the paper's T_w source).
	Disk *Server
}

// NewNode builds a node with the given NIC and disk rates (bytes/sec) and
// adds it to the network.
func (nw *Network) NewNode(name, rack string, nicBps, diskBps float64) *Node {
	n := &Node{
		nw:      nw,
		Name:    name,
		Rack:    rack,
		Egress:  nw.NewServer(name+"/tx", nicBps),
		Ingress: nw.NewServer(name+"/rx", nicBps),
		Disk:    nw.NewServer(name+"/disk", diskBps),
	}
	nw.nodes[name] = n
	return n
}

// SetCrossRackLimit installs (or removes, with bps <= 0) the node's
// cross-rack shaper.
func (n *Node) SetCrossRackLimit(bps float64) {
	if bps <= 0 {
		n.CrossOut, n.CrossIn = nil, nil
		return
	}
	n.CrossOut = n.nw.NewServer(n.Name+"/xout", bps)
	n.CrossIn = n.nw.NewServer(n.Name+"/xin", bps)
}

// SetNICLimit replaces the NIC rate in both directions (the paper's
// per-node 50/150 Mbps contention throttle).
func (n *Node) SetNICLimit(bps float64) {
	n.Egress.SetRate(bps)
	n.Ingress.SetRate(bps)
}

// Network carries packets between nodes. It makes the nodes and servers
// of a run and owns what they queue in — the job rings — so that Reset
// can hand the same memory to the next run.
type Network struct {
	eng   *des.Engine
	nodes map[string]*Node
	// servers holds every server record ever made here; the first used
	// belong to the current run.
	servers []*Server
	used    int
}

// NewNetwork returns an empty network.
func NewNetwork(eng *des.Engine) *Network {
	return &Network{eng: eng, nodes: make(map[string]*Node)}
}

// Reset empties the network for another run on the same engine (which the
// caller resets too): no nodes, no servers. The server records and rings
// stay allocated; what a stopped run left queued in them is zeroed, so no
// callback outlives the run that passed it in.
func (nw *Network) Reset() {
	clear(nw.nodes)
	for _, s := range nw.servers[:nw.used] {
		clear(s.jobs)
	}
	nw.used = 0
}

// Node looks a node up by name.
func (nw *Network) Node(name string) *Node { return nw.nodes[name] }

// Deliver moves n bytes from src to dst through every rate server on the
// path — src egress, the cross-rack shapers when racks differ, dst
// ingress — and calls arrived(tag) when the packet clears dst's ingress.
// The packet reaches src's egress at time at, which may be later than now
// if the caller is src's egress's one feeder (see Server). The source's
// egress and cross-rack shaper are timed at once, since only src feeds
// them; the destination's shaper and ingress, which every node sending to
// dst feeds, take the packet at the instant it reaches them. Stages
// pipeline across packets because each stage is its own FIFO server.
// The packet in flight is a job in one ring at a time; its tag tells the
// caller's one arrived callback which packet arrived.
func (nw *Network) Deliver(src, dst *Node, n int64, at time.Duration, arrived func(tag int), tag int) {
	j := job{n: n, done: arrived, tag: tag}
	out, next := src.Egress, 0
	if src.Rack != dst.Rack {
		if src.CrossOut != nil {
			at = out.Enqueue(at, n)
			out = src.CrossOut
		}
		if dst.CrossIn != nil {
			j.ahead[0], next = dst.CrossIn, 1
		}
	}
	j.ahead[next] = dst.Ingress
	out.enqueue(at, j)
}
