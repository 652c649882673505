package policy

import (
	"math/rand"
	"sort"
	"sync"

	"repro/internal/block"
	"repro/internal/proto"
)

// historyAlpha weights the newest heartbeat sample when folding it into
// a datanode's cluster-wide throughput history (same EWMA discount as
// the client-side recorder).
const historyAlpha = 0.5

// explorePeriod is how often the speedaware ordering swaps its head with
// the tail to re-measure a cold datanode: every explorePeriod-th block
// (deterministic — no rng draw — so the swap schedule replays exactly).
const explorePeriod = 4

// speedAware extends Algorithm 2's cost model with observed per-datanode
// throughput histories: every client heartbeat's speed table is folded
// into a cluster-wide EWMA per datanode, and the first pipeline node is
// the deterministic argmax of the placing client's own registry speed
// plus that shared history. Placement draws no randomness (the rack-
// aware tail still does, via the shared picker), and pipeline ordering
// is a deterministic speed sort with a fixed-period exploration swap, so
// speedaware runs are pure functions of the heartbeat sequence.
type speedAware struct {
	fallback defaultPolicy

	mu      sync.Mutex
	history map[string]float64 // datanode -> bytes/second (EWMA over all clients)
}

func newSpeedAware() *speedAware {
	return &speedAware{history: make(map[string]float64)}
}

func (s *speedAware) Name() string { return SpeedAware }

func (s *speedAware) ReplicationFor(path string, requested int) int { return requested }

func (s *speedAware) Place(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	p := newPicker(view, in.Rng, in.Exclude)
	best, ok := s.bestOf(view, in.Client, p)
	if !ok {
		// No history anywhere yet: behave exactly like the default
		// policy so cold starts keep its placement quality.
		return s.fallback.Place(view, in)
	}
	if !p.add(best, true) && !p.randomAlive() {
		return nil, ErrNoDatanodes
	}
	p.fillTail(in.Replication)
	return p.picked, nil
}

// bestOf returns the deterministic argmax of registry speed plus shared
// history over the placeable, unexcluded datanodes. ok is false when no
// candidate has any signal (cold cluster) or none remain.
func (s *speedAware) bestOf(view ClusterView, client string, p *picker) (string, bool) {
	reg := view.Registry()
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestScore, found := "", 0.0, false
	// view.Placeable() is sorted by name, so with strict-greater
	// comparison ties break toward the first name: fully deterministic.
	for _, n := range view.Placeable() {
		if p.used[n] {
			continue
		}
		score := reg.Speed(client, n) + s.history[n]
		if score <= 0 {
			continue
		}
		if !found || score > bestScore {
			best, bestScore, found = n, score, true
		}
	}
	return best, found
}

func (s *speedAware) ExcludeBusy(mode proto.WriteMode) bool {
	return s.fallback.ExcludeBusy(mode)
}

// OrderPipeline sorts targets by local speed descending (ties by name)
// and, every explorePeriod-th block, swaps the head with the last target
// so cold datanodes are re-measured. No rng draws: the order is a pure
// function of (idx, targets, speedOf).
func (s *speedAware) OrderPipeline(idx int, targets []string, speedOf func(string) float64, rng *rand.Rand) bool {
	if len(targets) < 2 {
		return false
	}
	sort.SliceStable(targets, func(i, j int) bool {
		si, sj := speedOf(targets[i]), speedOf(targets[j])
		if si != sj {
			return si > sj
		}
		return targets[i] < targets[j]
	})
	if idx%explorePeriod == explorePeriod-1 {
		last := len(targets) - 1
		targets[0], targets[last] = targets[last], targets[0]
		return true
	}
	return false
}

// ObserveHeartbeat folds one heartbeat's speed table into the shared
// per-datanode history. The fold is commutative per datanode (each key
// updates only its own EWMA cell), so map iteration order cannot leak
// into any decision.
func (s *speedAware) ObserveHeartbeat(client string, speeds map[string]float64) {
	if len(speeds) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for dn, speed := range speeds {
		if speed <= 0 {
			continue
		}
		if old, ok := s.history[dn]; ok {
			s.history[dn] = old + historyAlpha*(speed-old)
		} else {
			s.history[dn] = speed
		}
	}
}
