package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/namenode"
	"repro/internal/nnapi"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// meta_2w geometry: two closed-loop clients run metadata-only file
// lifecycles against an established namespace. No block data moves.
const (
	metaClients     = 2
	metaPrefill     = 16384
	metaBlocks      = 8
	metaDatanodes   = 9
	metaBlockBytes  = 1 << 20
	metaOpsPerCycle = 1 + 2*metaBlocks + metaBlocks + 1 + 1 // create, (heartbeat, addBlock)*, blockReceived*, complete, delete
)

// callFn issues one namenode operation: over RPC in meta_2w, as a
// direct handler call in the namenode layer probe.
type callFn func(method string, req, resp any) error

// directCalls routes the lifecycle's methods straight to the handlers.
func directCalls(nn *namenode.Namenode) callFn {
	return func(method string, req, resp any) (err error) {
		switch method {
		case nnapi.MethodCreate:
			*resp.(*nnapi.CreateResp), err = nn.Create(req.(nnapi.CreateReq))
		case nnapi.MethodClientHeartbeat:
			*resp.(*nnapi.ClientHeartbeatResp), err = nn.ClientHeartbeat(req.(nnapi.ClientHeartbeatReq))
		case nnapi.MethodAddBlock:
			*resp.(*nnapi.AddBlockResp), err = nn.AddBlock(req.(nnapi.AddBlockReq))
		case nnapi.MethodBlockReceived:
			*resp.(*nnapi.BlockReceivedResp), err = nn.BlockReceived(req.(nnapi.BlockReceivedReq))
		case nnapi.MethodComplete:
			*resp.(*nnapi.CompleteResp), err = nn.Complete(req.(nnapi.CompleteReq))
		case nnapi.MethodDelete:
			*resp.(*nnapi.DeleteResp), err = nn.Delete(req.(nnapi.DeleteReq))
		default:
			err = fmt.Errorf("directCalls: unexpected method %s", method)
		}
		return err
	}
}

// metaSpeeds is the table every client heartbeats: a spread, so SMARTH
// placement has real TopN choices.
func metaSpeeds() map[string]float64 {
	m := make(map[string]float64, metaDatanodes)
	for i := 0; i < metaDatanodes; i++ {
		m[cluster.DatanodeName(i)] = float64(40 + 15*i)
	}
	return m
}

// lifecycle runs one file's metadata from create to delete, unbatched,
// and checks what the namenode answered. addBlock receives the latency
// of each addBlock call.
func lifecycle(call callFn, client, path, dn string, speeds map[string]float64, addBlock func(time.Duration), tr *tracer, parent *span) error {
	do := func(method string, req, resp any) error {
		sp := tr.start("rpc."+method, parent)
		err := call(method, req, resp)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
		return nil
	}
	if err := do(nnapi.MethodCreate, nnapi.CreateReq{Path: path, Client: client, Replication: 3, BlockSize: metaBlockBytes}, &nnapi.CreateResp{}); err != nil {
		return err
	}
	var prev block.Block
	var blocks [metaBlocks]block.Block
	for i := range blocks {
		if err := do(nnapi.MethodClientHeartbeat, nnapi.ClientHeartbeatReq{Client: client, Speeds: speeds}, &nnapi.ClientHeartbeatResp{}); err != nil {
			return err
		}
		var ab nnapi.AddBlockResp
		start := time.Now()
		err := do(nnapi.MethodAddBlock, nnapi.AddBlockReq{Path: path, Client: client, Mode: proto.ModeSmarth, Previous: prev}, &ab)
		addBlock(time.Since(start))
		if err != nil {
			return err
		}
		if len(ab.Located.Targets) != 3 {
			return fmt.Errorf("addBlock %s: %d targets, want 3", path, len(ab.Located.Targets))
		}
		prev = ab.Located.Block
		blocks[i] = prev
		blocks[i].NumBytes = metaBlockBytes
	}
	for _, b := range blocks {
		if err := do(nnapi.MethodBlockReceived, nnapi.BlockReceivedReq{Name: dn, Block: b}, &nnapi.BlockReceivedResp{}); err != nil {
			return err
		}
	}
	var comp nnapi.CompleteResp
	if err := do(nnapi.MethodComplete, nnapi.CompleteReq{Path: path, Client: client}, &comp); err != nil {
		return err
	}
	if !comp.Done {
		return fmt.Errorf("complete %s: not done after every block was reported", path)
	}
	var del nnapi.DeleteResp
	if err := do(nnapi.MethodDelete, nnapi.DeleteReq{Path: path}, &del); err != nil {
		return err
	}
	if !del.Deleted {
		return fmt.Errorf("delete %s: no such file", path)
	}
	return nil
}

// prefill populates the namespace with n completed single-block files
// through direct namenode calls.
func prefill(nn *namenode.Namenode, n int) error {
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/prefill/d%03d/f%d", i%512, i)
		if _, err := nn.Create(nnapi.CreateReq{Path: path, Client: "prefill", Replication: 1, BlockSize: metaBlockBytes}); err != nil {
			return err
		}
		resp, err := nn.AddBlock(nnapi.AddBlockReq{Path: path, Client: "prefill"})
		if err != nil {
			return err
		}
		blk := resp.Located.Block
		blk.NumBytes = metaBlockBytes
		if _, err := nn.BlockReceived(nnapi.BlockReceivedReq{Name: resp.Located.Targets[0].Name, Block: blk}); err != nil {
			return err
		}
		if _, err := nn.Complete(nnapi.CompleteReq{Path: path, Client: "prefill"}); err != nil {
			return err
		}
	}
	return nil
}

type metaBench struct {
	c      *cluster.Cluster
	conns  [metaClients]*rpc.Client
	speeds map[string]float64
	seq    [metaClients]int
	tr     *tracer
}

func setupMeta(o runOpts) (instance, error) {
	c, err := cluster.Start(cluster.Config{NumDatanodes: metaDatanodes, Seed: o.seed, Expiry: livenessWindow})
	if err != nil {
		return nil, err
	}
	b := &metaBench{c: c, speeds: metaSpeeds(), tr: o.tr}
	n := metaPrefill
	if o.toy {
		n = 256
	}
	if err := prefill(c.NN, n); err != nil {
		b.close()
		return nil, err
	}
	for w := range b.conns {
		conn, err := c.EffNet.Dial(fmt.Sprintf("meta-w%d", w), cluster.NamenodeAddr)
		if err != nil {
			b.close()
			return nil, err
		}
		b.conns[w] = rpc.NewClient(conn)
	}
	b.runSlice(time.Now().Add(time.Second / 4)) // warm-up
	return b, nil
}

func (b *metaBench) close() {
	for _, cl := range b.conns {
		if cl != nil {
			cl.Close()
		}
	}
	b.c.Stop()
}

func (b *metaBench) check() error { return nil } // every reply was checked in the slice

func (b *metaBench) runSlice(deadline time.Time) sliceOut {
	type clientOut struct {
		ops      []time.Duration
		addBlock []float64 // microseconds
		failed   int
	}
	var outs [metaClients]clientOut
	var out sliceOut
	var wg sync.WaitGroup
	start := time.Now()
	out.meter.begin()
	for w := range b.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			name := fmt.Sprintf("meta-w%d", w)
			dn := cluster.DatanodeName(w % metaDatanodes)
			for time.Now().Before(deadline) {
				b.seq[w]++
				path := fmt.Sprintf("/meta/w%d/f%d", w, b.seq[w])
				root := b.tr.start("meta_lifecycle", nil)
				t0 := time.Now()
				err := lifecycle(b.conns[w].Call, name, path, dn, b.speeds, func(d time.Duration) {
					o.addBlock = append(o.addBlock, float64(d)/1e3)
				}, b.tr, root)
				took := time.Since(t0)
				root.end()
				if err != nil {
					fmt.Printf("# meta: %v\n", err)
					o.failed++
					continue
				}
				o.ops = append(o.ops, took)
			}
		}(w)
	}
	wg.Wait()
	var addBlock []float64
	for _, o := range outs {
		out.ops = append(out.ops, o.ops...)
		out.failed += o.failed
		addBlock = append(addBlock, o.addBlock...)
	}
	// The two clients overlap, so CPU cannot be told apart per
	// operation: one sample covers the whole slice.
	out.meter.end(len(out.ops))
	elapsed := time.Since(start).Seconds()
	sort.Float64s(addBlock)
	if len(addBlock) > 0 {
		out.extra = map[string]float64{
			"meta_ops_per_s":  float64(len(out.ops)*metaOpsPerCycle) / elapsed,
			"addblock_p50_us": quantile(addBlock, 0.50),
			"addblock_p99_us": quantile(addBlock, 0.99),
		}
	}
	return out
}
