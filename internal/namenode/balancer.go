package namenode

import (
	"sort"

	"repro/internal/block"
	"repro/internal/nnapi"
)

// The balancer evens out disk usage: replicas move from datanodes whose
// utilization sits above the cluster mean (plus a threshold) to nodes
// below it. A move is a normal replicate command to the over-full node;
// once the target reports the new replica, the source's copy is
// invalidated — copy-then-delete, so redundancy never drops.
//
// Target selection here is utilization-driven round-robin, deliberately
// NOT routed through the policy layer's Place: a balancer move wants the
// emptiest receiver, not a topology/speed-optimal pipeline head, and
// drawing from the shared placement rng would perturb the placement
// sequence of concurrent writes (conformance pins that sequence).

// balancerMaxMoves bounds the moves one Balance round schedules.
const balancerMaxMoves = 16

// pendingMove tracks a balancer transfer awaiting its blockReceived.
type pendingMove struct {
	source string
	target string
	gen    block.GenStamp
}

// dnUsage is one datanode's disk utilization (balancer input).
type dnUsage struct {
	info block.DatanodeInfo
	used int64
}

// Balance computes one round of balancing moves, at most
// balancerMaxMoves, and queues them on the source datanodes' heartbeats.
// A move that races a later delete just produces an invalidation for the
// moved copy.
func (nn *Namenode) Balance(req nnapi.BalanceReq) (nnapi.BalanceResp, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	threshold := req.Threshold
	if threshold <= 0 {
		threshold = 0.1
	}

	now := nn.clk.Now()
	var nodes []dnUsage
	for _, e := range nn.dm.byName {
		if nn.dm.isPlaceable(e, now) {
			nodes = append(nodes, dnUsage{info: e.info, used: e.usedBytes})
		}
	}
	if len(nodes) < 2 {
		return nnapi.BalanceResp{}, nil
	}
	var total int64
	for _, n := range nodes {
		total += n.used
	}
	mean := total / int64(len(nodes))
	resp := nnapi.BalanceResp{MeanBytes: mean}
	if mean == 0 {
		return resp, nil
	}
	over := int64(float64(mean) * (1 + threshold))
	under := int64(float64(mean) * (1 - threshold))

	sort.Slice(nodes, func(i, j int) bool { return nodes[i].used > nodes[j].used })
	// Receivers, least-utilized first.
	var receivers []dnUsage
	for i := len(nodes) - 1; i >= 0; i-- {
		if nodes[i].used < under {
			receivers = append(receivers, nodes[i])
		}
	}
	if len(receivers) == 0 {
		return resp, nil
	}

	// Index complete files' blocks by holder, each list in block-ID order.
	blocksOn := make(map[string][]*blockMeta)
	for _, meta := range nn.ns.blocks {
		if meta.complete {
			for _, h := range meta.locations {
				blocksOn[h] = append(blocksOn[h], meta)
			}
		}
	}
	for _, metas := range blocksOn {
		sort.Slice(metas, func(i, j int) bool { return metas[i].cur.ID < metas[j].cur.ID })
	}

	ri := 0
	for _, donor := range nodes {
		if donor.used <= over {
			continue
		}
		for _, meta := range blocksOn[donor.info.Name] {
			if resp.Moves >= balancerMaxMoves {
				return resp, nil
			}
			if _, busy := nn.balancerMoves[meta.cur.ID]; busy {
				continue
			}
			// Find a receiver that doesn't already hold this block.
			var target *dnUsage
			for probe := 0; probe < len(receivers); probe++ {
				cand := &receivers[(ri+probe)%len(receivers)]
				if !meta.has(cand.info.Name) {
					target = cand
					ri = (ri + probe + 1) % len(receivers)
					break
				}
			}
			if target == nil {
				continue
			}
			source := donor.info.Name
			nn.balancerMoves[meta.cur.ID] = pendingMove{source: source, target: target.info.Name, gen: meta.cur.Gen}
			nn.repl.queue[source] = append(nn.repl.queue[source], nnapi.ReplicateCmd{
				Block:   meta.cur,
				Targets: []block.DatanodeInfo{target.info},
			})
			resp.Moves++
		}
	}
	return resp, nil
}

// completeBalancerMove is called from blockReceivedOne: if this report
// finishes a balancer move, the source replica is dropped and
// invalidated.
func (nn *Namenode) completeBalancerMove(dn string, b block.Block) {
	move, ok := nn.balancerMoves[b.ID]
	if !ok || move.target != dn || move.gen != b.Gen {
		return
	}
	delete(nn.balancerMoves, b.ID)
	if meta, ok := nn.ns.blocks[b.ID]; ok {
		meta.remove(move.source)
	}
	nn.dm.scheduleInvalidate(move.source, b.ID, b.Gen)
}
