package cluster

import (
	"sync"

	"repro/internal/clock"
	"repro/internal/ratelimit"
	"repro/internal/transport"
)

// Shaper is the software analogue of the paper's `tc` usage: per-node NIC
// rate limits plus optional per-node cross-rack limits. It implements
// transport.LinkPolicy and shapes the in-memory transport Start boots;
// StartTCP refuses one, because its plans are keyed by component name,
// not by TCP address.
type Shaper struct {
	mu    sync.RWMutex
	clk   clock.Clock
	nodes map[string]*nodeShape
}

type nodeShape struct {
	rack    string
	egress  *ratelimit.Limiter
	ingress *ratelimit.Limiter
	// cross shapes traffic to/from other racks (nil = unthrottled).
	crossEgress  *ratelimit.Limiter
	crossIngress *ratelimit.Limiter
}

// NewShaper returns an empty shaper; unknown endpoints are unshaped.
func NewShaper(clk clock.Clock) *Shaper {
	if clk == nil {
		clk = clock.System
	}
	return &Shaper{clk: clk, nodes: make(map[string]*nodeShape)}
}

// newLimiter builds a limiter with a ~5 ms burst (16 KiB floor) rather
// than the ratelimit package's 1-second default: shaped experiments scale
// file sizes down dramatically, and a one-second burst would swallow an
// entire scaled workload without ever limiting it. Linux tc shapers use
// millisecond-scale bursts for the same reason.
func (s *Shaper) newLimiter(bps float64) *ratelimit.Limiter {
	burst := bps / 200
	if burst < 16<<10 {
		burst = 16 << 10
	}
	return ratelimit.New(s.clk, bps, burst)
}

// SetNode declares a node's rack and NIC capacity in bytes/second
// (0 = unlimited). Ingress and egress each get the full NIC rate,
// matching how EC2 instance bandwidth behaves in the paper.
func (s *Shaper) SetNode(name, rack string, nicBps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[name]
	if n == nil {
		n = &nodeShape{}
		s.nodes[name] = n
	}
	n.rack = rack
	if nicBps > 0 {
		n.egress = s.newLimiter(nicBps)
		n.ingress = s.newLimiter(nicBps)
	} else {
		n.egress, n.ingress = nil, nil
	}
}

// SetCrossRackLimit throttles a node's traffic to and from other racks
// (the paper's two-rack `tc` scenario). bps <= 0 removes the throttle.
func (s *Shaper) SetCrossRackLimit(name string, bps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[name]
	if n == nil {
		n = &nodeShape{}
		s.nodes[name] = n
	}
	if bps > 0 {
		n.crossEgress = s.newLimiter(bps)
		n.crossIngress = s.newLimiter(bps)
	} else {
		n.crossEgress, n.crossIngress = nil, nil
	}
}

// Limits implements transport.LinkPolicy.
func (s *Shaper) Limits(src, dst string) []*ratelimit.Limiter {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var lims []*ratelimit.Limiter
	a, b := s.nodes[src], s.nodes[dst]
	if a != nil && a.egress != nil {
		lims = append(lims, a.egress)
	}
	if b != nil && b.ingress != nil {
		lims = append(lims, b.ingress)
	}
	if a != nil && b != nil && a.rack != b.rack {
		if a.crossEgress != nil {
			lims = append(lims, a.crossEgress)
		}
		if b.crossIngress != nil {
			lims = append(lims, b.crossIngress)
		}
	}
	return lims
}

var _ transport.LinkPolicy = (*Shaper)(nil)
