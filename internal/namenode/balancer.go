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

// pendingMove tracks a balancer transfer awaiting its blockReceived.
type pendingMove struct {
	source string
	target string
	gen    block.GenStamp
}

// blockSnap is a balancer-local snapshot of one complete block.
type blockSnap struct {
	cur     block.Block
	holders map[string]bool
}

// Balance computes one round of balancing moves and queues them on the
// source datanodes' heartbeats. The block index is a point-in-time
// snapshot; a move that races a later delete just produces an
// invalidation for the moved copy.
func (nn *Namenode) Balance(req nnapi.BalanceReq) (nnapi.BalanceResp, error) {
	if req.Threshold <= 0 {
		req.Threshold = 0.1
	}
	if req.MaxMoves <= 0 {
		req.MaxMoves = 16
	}

	nodes := nn.dm.usages()
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
	over := int64(float64(mean) * (1 + req.Threshold))
	under := int64(float64(mean) * (1 - req.Threshold))

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

	// Index complete files' blocks by holder for the donors we will touch.
	blocksOn := make(map[string][]blockSnap)
	nn.ns.forEachBlock(func(meta *blockMeta) {
		if !meta.complete {
			return
		}
		snap := blockSnap{cur: meta.cur, holders: make(map[string]bool, len(meta.locations))}
		for h := range meta.locations {
			snap.holders[h] = true
			blocksOn[h] = append(blocksOn[h], snap)
		}
	})
	for _, snaps := range blocksOn {
		sort.Slice(snaps, func(i, j int) bool { return snaps[i].cur.ID < snaps[j].cur.ID })
	}

	// Select moves under nn.mu (reserving each block in balancerMoves),
	// then queue the transfer commands after releasing it — nn.mu is last
	// in the lock order and must not be held across other subsystems.
	type move struct {
		source string
		cmd    nnapi.ReplicateCmd
	}
	var moves []move
	nn.mu.Lock()
	ri := 0
	for _, donor := range nodes {
		if donor.used <= over || resp.Moves >= req.MaxMoves {
			continue
		}
		for _, snap := range blocksOn[donor.name] {
			if resp.Moves >= req.MaxMoves {
				break
			}
			if _, busy := nn.balancerMoves[snap.cur.ID]; busy {
				continue
			}
			// Find a receiver that doesn't already hold this block.
			var target string
			for probe := 0; probe < len(receivers); probe++ {
				cand := receivers[(ri+probe)%len(receivers)]
				if !snap.holders[cand.name] {
					target = cand.name
					ri = (ri + probe + 1) % len(receivers)
					break
				}
			}
			if target == "" {
				continue
			}
			info, ok := nn.dm.lookup(target)
			if !ok {
				continue
			}
			nn.balancerMoves[snap.cur.ID] = pendingMove{source: donor.name, target: target, gen: snap.cur.Gen}
			moves = append(moves, move{source: donor.name, cmd: nnapi.ReplicateCmd{
				Block:   snap.cur,
				Targets: []block.DatanodeInfo{info},
			}})
			resp.Moves++
		}
	}
	nn.mu.Unlock()

	for _, m := range moves {
		nn.repl.enqueueMove(m.source, m.cmd)
	}
	return resp, nil
}

// completeBalancerMove is called from blockReceivedOne: if this report
// finishes a balancer move, the source replica is dropped and
// invalidated. nn.mu protects only the move table and is released before
// touching the namesystem or the datanode manager.
func (nn *Namenode) completeBalancerMove(dn string, b block.Block) {
	nn.mu.Lock()
	move, ok := nn.balancerMoves[b.ID]
	if !ok || move.target != dn || move.gen != b.Gen {
		nn.mu.Unlock()
		return
	}
	delete(nn.balancerMoves, b.ID)
	nn.mu.Unlock()
	nn.ns.dropLocation(b.ID, move.source)
	nn.dm.scheduleInvalidate(move.source, b.ID, b.Gen)
}
