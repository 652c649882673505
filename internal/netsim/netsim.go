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
// Completion times never decrease along the queue, so a server keeps its
// pending jobs in its own ring and holds one slot in the engine's queue,
// for the head. Each job's tie-break position is reserved when it arrives
// (des.Engine.ReserveSeq), which is where a per-job engine event would
// have taken it: jobs of different servers that complete at the same
// instant still fire in Enqueue order.
type Server struct {
	eng       *des.Engine
	name      string
	rate      float64 // bytes per second
	busyUntil time.Duration
	// Bytes is the total number of bytes served (for utilization stats).
	Bytes int64

	// The pending jobs, oldest first: a ring of power-of-two size holding
	// queued entries from head on. The oldest is the one in the engine's
	// queue.
	jobs   []job
	head   int
	queued int
	fire   func() // s.complete, bound once
}

// job is one queued transfer: when it finishes, its reserved position
// among events at that instant, and whom to tell.
type job struct {
	at   time.Duration
	seq  uint64
	done func()
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

// SetRate changes the rate; queued jobs already scheduled keep their
// completion times (rate changes apply to later arrivals).
func (s *Server) SetRate(bytesPerSecond float64) { s.rate = bytesPerSecond }

// Enqueue schedules a job of n bytes; done fires when the job finishes
// serializing through this server.
func (s *Server) Enqueue(n int64, done func()) {
	now := s.eng.Now()
	start := s.busyUntil
	if start < now {
		start = now
	}
	var dur time.Duration
	if s.rate > 0 {
		dur = time.Duration(float64(n) / s.rate * float64(time.Second))
	}
	s.busyUntil = start + dur
	s.Bytes += n
	if s.queued == len(s.jobs) {
		s.grow()
	}
	seq := s.eng.ReserveSeq()
	s.jobs[(s.head+s.queued)&(len(s.jobs)-1)] = job{at: s.busyUntil, seq: seq, done: done}
	s.queued++
	if s.queued == 1 {
		s.eng.AtSeq(s.busyUntil, seq, s.fire)
	}
}

// grow doubles the ring, unwrapping it so the oldest job is at index 0.
func (s *Server) grow() {
	bigger := make([]job, max(8, 2*len(s.jobs)))
	n := copy(bigger, s.jobs[s.head:])
	copy(bigger[n:], s.jobs[:s.head])
	s.jobs, s.head = bigger, 0
}

// complete fires the oldest job. Its successor enters the engine's queue
// first, so a done callback that enqueues on this server again finds the
// server in a consistent state.
func (s *Server) complete() {
	done := s.jobs[s.head].done
	s.jobs[s.head].done = nil
	s.head = (s.head + 1) & (len(s.jobs) - 1)
	s.queued--
	if s.queued > 0 {
		next := &s.jobs[s.head]
		s.eng.AtSeq(next.at, next.seq, s.fire)
	}
	done()
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
// of a run and owns what they queue in — job rings, flight records — so
// that Reset can hand the same memory to the next run.
type Network struct {
	eng *des.Engine
	// HopLatency is the propagation + protocol latency added after a
	// packet clears all rate servers on a hop.
	HopLatency time.Duration
	nodes      map[string]*Node
	// servers holds every server record ever made here; the first used
	// belong to the current run.
	servers []*Server
	used    int
	// slabs holds every flight record ever made here and free the ones not
	// in use. A plain stack: the simulation is single-threaded, and which
	// record a Deliver gets has no effect on what it does.
	slabs [][]flight
	free  []*flight
}

// NewNetwork returns an empty network.
func NewNetwork(eng *des.Engine, hopLatency time.Duration) *Network {
	return &Network{eng: eng, HopLatency: hopLatency, nodes: make(map[string]*Node)}
}

// Reset empties the network for another run on the same engine (which the
// caller resets too): no nodes, no servers, every flight record free. The
// records and rings stay allocated; what a stopped run left queued in them
// is zeroed, so no callback outlives the run that passed it in.
func (nw *Network) Reset(hopLatency time.Duration) {
	nw.HopLatency = hopLatency
	clear(nw.nodes)
	for _, s := range nw.servers[:nw.used] {
		clear(s.jobs)
	}
	nw.used = 0
	nw.free = nw.free[:0]
	for _, slab := range nw.slabs {
		for i := range slab {
			slab[i].arrived = nil
			nw.free = append(nw.free, &slab[i])
		}
	}
}

// Node looks a node up by name.
func (nw *Network) Node(name string) *Node { return nw.nodes[name] }

// flight is one Deliver in progress: the packet's remaining path and the
// single callback (step, bound when the record is first made) that every
// stage on it fires. The Network owns the record from Deliver until the
// packet has arrived; it goes back on the free list just before arrived
// runs.
type flight struct {
	nw      *Network
	stages  [4]*Server
	n       int   // stages in use
	next    int   // next stage to enter; n+1 once the hop latency is running
	bytes   int64 // packet size
	arrived func()
	step    func() // f.advance
}

// Deliver moves n bytes from src to dst through every rate server on the
// path (src egress, cross-rack shapers when racks differ, dst ingress),
// then fires arrived after the hop latency. Stages pipeline across
// packets because each stage is its own FIFO server.
func (nw *Network) Deliver(src, dst *Node, n int64, arrived func()) {
	if len(nw.free) == 0 {
		// Backlogs are deep (a whole block can sit in one egress queue),
		// so records are made a slab at a time.
		slab := make([]flight, 64)
		for i := range slab {
			slab[i].nw, slab[i].step = nw, slab[i].advance
			nw.free = append(nw.free, &slab[i])
		}
		nw.slabs = append(nw.slabs, slab)
	}
	last := len(nw.free) - 1
	f := nw.free[last]
	nw.free = nw.free[:last]
	f.bytes, f.arrived, f.next = n, arrived, 0
	f.stages[0], f.n = src.Egress, 1
	if src.Rack != dst.Rack {
		if src.CrossOut != nil {
			f.stages[f.n] = src.CrossOut
			f.n++
		}
		if dst.CrossIn != nil {
			f.stages[f.n] = dst.CrossIn
			f.n++
		}
	}
	f.stages[f.n] = dst.Ingress
	f.n++
	f.advance()
}

// advance enters the next stage, or the hop latency after the last one,
// or hands the packet over.
func (f *flight) advance() {
	nw := f.nw
	if f.next < f.n {
		stage := f.stages[f.next]
		f.next++
		stage.Enqueue(f.bytes, f.step)
		return
	}
	if f.next == f.n && nw.HopLatency > 0 {
		f.next++
		nw.eng.Schedule(nw.HopLatency, f.step)
		return
	}
	arrived := f.arrived
	f.arrived = nil
	nw.free = append(nw.free, f)
	arrived()
}
