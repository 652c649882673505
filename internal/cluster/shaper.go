package cluster

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// Shaper is the software analogue of the paper's `tc` usage: per-node NIC
// rate limits plus optional per-node cross-rack limits, each a token
// bucket. It implements transport.LinkPolicy and shapes the in-memory
// transport Start boots; StartTCP refuses one, as TCP links are never
// shaped.
type Shaper struct {
	mu    sync.RWMutex
	clk   clock.Clock
	nodes map[string]*nodeShape
}

type nodeShape struct {
	rack    string
	egress  *bucket
	ingress *bucket
	// cross shapes traffic to/from other racks (nil = unthrottled).
	crossEgress  *bucket
	crossIngress *bucket
}

// NewShaper returns an empty shaper; unknown endpoints are unshaped.
func NewShaper(clk clock.Clock) *Shaper {
	if clk == nil {
		clk = clock.System
	}
	return &Shaper{clk: clk, nodes: make(map[string]*nodeShape)}
}

// bucket is a token bucket over bytes: it refills at rate bytes/second up
// to burst, and a debit may drive it below zero, the deficit being how
// long the sender waits.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second, > 0
	burst  float64 // capacity in bytes
	tokens float64
	last   time.Time
}

// newBucket builds a bucket with a ~5 ms burst (16 KiB floor): shaped
// experiments scale file sizes down dramatically, and a one-second burst
// would swallow an entire scaled workload without ever limiting it.
// Linux tc shapers use millisecond-scale bursts for the same reason.
func (s *Shaper) newBucket(bps float64) *bucket {
	burst := bps / 200
	if burst < 16<<10 {
		burst = 16 << 10
	}
	return &bucket{rate: bps, burst: burst, tokens: burst, last: s.clk.Now()}
}

// debit refills the bucket for the time elapsed on clk, takes n tokens
// and returns how long the caller must wait for the debit to be covered.
func (b *bucket) debit(clk clock.Clock, n int) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := clk.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
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
		n.egress = s.newBucket(nicBps)
		n.ingress = s.newBucket(nicBps)
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
		n.crossEgress = s.newBucket(bps)
		n.crossIngress = s.newBucket(bps)
	} else {
		n.crossEgress, n.crossIngress = nil, nil
	}
}

// Pacer implements transport.LinkPolicy. The src→dst link passes src's
// egress bucket, dst's ingress bucket and, across racks, both cross-rack
// buckets; it is nil when none is set. The pacer debits each chunk from
// every bucket and sleeps for the longest of their waits, not the sum:
// the buckets act in parallel, and waiting on one does not admit bytes
// through another any sooner. A chunk larger than a burst is admitted in
// one debit (the wait extends past one bucket's worth), which keeps the
// long-run rate.
func (s *Shaper) Pacer(src, dst string) func(n int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var bs []*bucket
	a, b := s.nodes[src], s.nodes[dst]
	if a != nil && a.egress != nil {
		bs = append(bs, a.egress)
	}
	if b != nil && b.ingress != nil {
		bs = append(bs, b.ingress)
	}
	if a != nil && b != nil && a.rack != b.rack {
		if a.crossEgress != nil {
			bs = append(bs, a.crossEgress)
		}
		if b.crossIngress != nil {
			bs = append(bs, b.crossIngress)
		}
	}
	if len(bs) == 0 {
		return nil
	}
	clk := s.clk
	return func(n int) {
		var longest time.Duration
		for _, b := range bs {
			if w := b.debit(clk, n); w > longest {
				longest = w
			}
		}
		if longest > 0 {
			clk.Sleep(longest)
		}
	}
}

var _ transport.LinkPolicy = (*Shaper)(nil)
