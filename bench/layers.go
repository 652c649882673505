package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/checksum"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datanode"
	"repro/internal/des"
	"repro/internal/ec2"
	"repro/internal/nnapi"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/writesched"
)

// layerDef defines one per-layer metric and records, before anything is
// measured, which end-to-end metric it should move on which workload.
type layerDef struct {
	metricDef
	Moves string
}

func ld(name, unit, better, moves string) layerDef {
	return layerDef{metricDef{Name: name, Unit: unit, Better: better}, moves}
}

const (
	movesWire  = "cpu_ms_per_op, op_ms on mem_write_r3, tcp_write_r3, tcp_read_r3; none on shaped_xrack100, meta_2w, sim_fig13"
	movesMeta  = "op_ms, cpu_ms_per_op on meta_2w; small on mem_write_r3 (64 addBlocks per file); none on tcp_read_r3"
	movesSim   = "op_ms on sim_fig13 only"
	movesSpans = "boundary spans whose self times sum to the file's wall time: op_ms on the data workloads"
)

// perLayer lists every per-layer metric, in report order. Each layer is
// timed alone, from outside, at the geometry the workloads use: 64 KB
// packets, 512 B chunks, 1 MB (memory) and 8 MB (disk) blocks.
var perLayer = []layerDef{
	ld("client.create_ms", "ms", "lower", movesSpans),
	ld("client.stream_ms", "ms", "lower", movesSpans),
	ld("client.close_ms", "ms", "lower", movesSpans),
	ld("client.open_ms", "ms", "lower", movesSpans),
	ld("client.read_ms", "ms", "lower", movesSpans),
	ld("trace.overhead_pct", "%", "lower", "traced against untraced median op_ms of the workload run; not a layer, the cost of looking"),
	ld("checksum.sum_ns_per_64KB", "ns", "lower", movesWire+" (1 sum per packet)"),
	ld("checksum.verify_ns_per_64KB", "ns", "lower", movesWire+" (R verifies per packet written, 1 per packet read)"),
	ld("proto.packet_rt_ns", "ns", "lower", movesWire),
	ld("proto.packet_rt_allocs", "count", "lower", "alloc_MB_per_op on the data workloads"),
	ld("proto.ack_rt_ns", "ns", "lower", movesWire),
	ld("bufpool.getput_ns", "ns", "lower", movesWire),
	ld("transport.mem_copy_MBps", "MB/s", "higher", "ceiling for op_ms on mem_write_r3; machine-weather calibration"),
	ld("transport.mem_copy_cpu_ns_per_MB", "ns", "lower", "cpu_ms_per_op on mem_write_r3"),
	ld("transport.tcp_copy_MBps", "MB/s", "higher", "ceiling for op_ms on tcp_write_r3, tcp_read_r3; machine-weather calibration"),
	ld("transport.tcp_copy_cpu_ns_per_MB", "ns", "lower", "cpu_ms_per_op on tcp_write_r3, tcp_read_r3"),
	ld("storage.mem_block_ns_per_MB", "ns", "lower", "op_ms, cpu_ms_per_op on mem_write_r3 only"),
	ld("storage.mem_block_alloc_B_per_MB", "B", "lower", "alloc_MB_per_op on mem_write_r3 only"),
	ld("storage.disk_block_ns_per_MB", "ns", "lower", "op_ms, cpu_ms_per_op on tcp_write_r3 only"),
	ld("storage.disk_read_ns_per_MB", "ns", "lower", "op_ms, cpu_ms_per_op on tcp_read_r3 only"),
	ld("datanode.write_1hop_MBps", "MB/s", "higher", "op_ms on mem_write_r3 and tcp_write_r3"),
	ld("datanode.serve_read_MBps", "MB/s", "higher", "op_ms on tcp_read_r3"),
	ld("rpc.echo_rt_ns", "ns", "lower", movesMeta),
	ld("rpc.echo_allocs", "count", "lower", "alloc_MB_per_op on meta_2w"),
	ld("nnapi.addblock_codec_ns", "ns", "lower", movesMeta),
	ld("nnapi.addblock_codec_allocs", "count", "lower", "alloc_MB_per_op on meta_2w"),
	ld("namenode.addblock_direct_ns", "ns", "lower", movesMeta),
	ld("namenode.lifecycle_direct_ops_per_s", "1/s", "higher", movesMeta),
	ld("policy.place_ns", "ns", "lower", movesMeta+"; decides op_ms on shaped_xrack100 by choice, not by speed"),
	ld("core.topn_ns", "ns", "lower", movesMeta+"; decides op_ms on shaped_xrack100 by choice, not by speed"),
	ld("writesched.block_cycle_ns", "ns", "lower", "op_ms on mem_write_r3 (64 blocks per file) and sim_fig13"),
	ld("des.events_per_s", "1/s", "higher", movesSim),
	ld("sim.point_wall_ms.hdfs_1GB", "ms", "lower", movesSim),
	ld("sim.point_wall_ms.smarth_1GB", "ms", "lower", movesSim),
	ld("sim.point_wall_ms.hdfs_8GB", "ms", "lower", movesSim),
	ld("sim.point_wall_ms.smarth_8GB", "ms", "lower", movesSim),
}

// probeBudget is how long each layer is timed for.
const probeBudget = 150 * time.Millisecond

// callCost is what one call of a probed function costs.
type callCost struct{ ns, allocs, bytes float64 }

// timeCalls calls fn in five equal batches filling about budget and
// returns the median batch's wall time per call, with allocations and
// allocated bytes per call over all batches. fn runs on this goroutine
// alone, so wall time is also its CPU time.
func timeCalls(budget time.Duration, fn func()) callCost {
	const batches = 5
	fn() // warm pools and caches
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if took := time.Since(start); took >= budget/(2*batches) || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(budget/batches)/float64(took)))
			break
		}
		n *= 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	perCall := make([]float64, batches)
	for b := range perCall {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		perCall[b] = float64(time.Since(start)) / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	calls := float64(batches * n)
	return callCost{
		ns:     median(perCall),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / calls,
		bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / calls,
	}
}

// must aborts a probe: the layers are fed fixed, valid inputs, so an
// error is a broken layer, reported as a failed benchmark run.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("layer probe: %w", err))
	}
}

// probeLayers times every layer alone and returns the values by metric
// name (all of perLayer except client.* and trace.*, which come from
// the traced workload run).
func probeLayers() (vals map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	vals = make(map[string]float64)
	probeCodec(vals)
	mem, err := probeMemCopy()
	must(err)
	tcp, err := probeTCPCopy()
	must(err)
	vals["transport.mem_copy_MBps"], vals["transport.mem_copy_cpu_ns_per_MB"] = mem.mbps, mem.cpuNsPerMB
	vals["transport.tcp_copy_MBps"], vals["transport.tcp_copy_cpu_ns_per_MB"] = tcp.mbps, tcp.cpuNsPerMB
	probeStorage(vals)
	probeDatanode(vals)
	probeControl(vals)
	probeSim(vals)
	return vals, nil
}

// probeCodec times the per-packet work of the data plane: checksums,
// the packet and ack frame codecs, and the buffer pool.
func probeCodec(vals map[string]float64) {
	data := make([]byte, packetBytes)
	rand.New(rand.NewSource(1)).Read(data)
	var sums []uint32
	vals["checksum.sum_ns_per_64KB"] = timeCalls(probeBudget, func() {
		sums = checksum.AppendSums(sums[:0], data, chunkBytes)
	}).ns
	raw := checksum.Encode(nil, sums)
	vals["checksum.verify_ns_per_64KB"] = timeCalls(probeBudget, func() {
		must(checksum.VerifyEncoded(data, raw, chunkBytes))
	}).ns

	var buf bytes.Buffer
	conn := proto.NewConn(&buf)
	seqno := int64(0)
	pkt := timeCalls(probeBudget, func() {
		seqno++
		must(conn.WritePacket(&proto.Packet{Seqno: seqno, Sums: sums, Data: data}))
		got, err := conn.ReadPacket()
		must(err)
		if got.Seqno != seqno || len(got.Data) != len(data) {
			must(fmt.Errorf("packet round trip: got seqno %d, %d bytes", got.Seqno, len(got.Data)))
		}
		got.Release()
	})
	vals["proto.packet_rt_ns"], vals["proto.packet_rt_allocs"] = pkt.ns, pkt.allocs
	statuses := []proto.Status{proto.StatusSuccess, proto.StatusSuccess, proto.StatusSuccess}
	vals["proto.ack_rt_ns"] = timeCalls(probeBudget, func() {
		seqno++
		must(conn.WriteAck(&proto.Ack{Kind: proto.AckData, Seqno: seqno, Statuses: statuses}))
		got, err := conn.ReadAck()
		must(err)
		if got.Seqno != seqno || !got.OK() {
			must(fmt.Errorf("ack round trip: got %+v", got))
		}
	}).ns
	vals["bufpool.getput_ns"] = timeCalls(probeBudget, func() {
		bufpool.Put(bufpool.Get(packetBytes))
	}).ns
}

// copyOut is a raw-copy ceiling: no protocol, one connection.
type copyOut struct{ mbps, cpuNsPerMB float64 }

// probeCopy pushes 256 MB through one connection of nw in packet-sized
// writes to a draining peer — the way the workloads feed the client —
// three times, and keeps the medians.
func probeCopy(nw transport.Network, addr string) (out copyOut, err error) {
	const copyBytes = 256 << 20
	ln, err := nw.Listen(addr)
	if err != nil {
		return out, err
	}
	defer ln.Close()
	drained := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			drained <- err
			return
		}
		_, err = io.CopyBuffer(struct{ io.Writer }{io.Discard}, c, make([]byte, packetBytes))
		c.Close()
		drained <- err
	}()
	conn, err := nw.Dial("bench-copy", ln.Addr())
	if err != nil {
		return out, err
	}
	src := make([]byte, packetBytes)
	var mbps, cpu []float64
	for i := 0; i < 3 && err == nil; i++ {
		var m meter
		m.begin()
		start := time.Now()
		for sent := 0; sent < copyBytes && err == nil; sent += len(src) {
			_, err = conn.Write(src)
		}
		took := time.Since(start)
		m.end(0)
		mbps = append(mbps, copyBytes/1e6/took.Seconds())
		cpu = append(cpu, float64(m.cpu)/(copyBytes/1e6))
	}
	if cerr := conn.Close(); err == nil {
		err = cerr
	}
	if derr := <-drained; err == nil {
		err = derr
	}
	return copyOut{median(mbps), median(cpu)}, err
}

func probeMemCopy() (copyOut, error) {
	return probeCopy(transport.NewMemNetwork(nil), "bench-sink")
}

func probeTCPCopy() (copyOut, error) {
	return probeCopy(transport.NewTCPNetworkTuned(nil, transport.DefaultTCPTuning), "127.0.0.1:0")
}

// probeStorage times one block's life in each store: create, append in
// packets, commit, and (disk) a full read back, then delete.
func probeStorage(vals map[string]float64) {
	data := make([]byte, packetBytes)
	writeBlock := func(s storage.Store, id block.ID, size int) {
		w, err := s.Create(block.Block{ID: id, Gen: 1}, false)
		must(err)
		if h, ok := w.(storage.SizeHinter); ok {
			h.SizeHint(int64(size))
		}
		for off := 0; off < size; off += len(data) {
			_, err := w.Write(data)
			must(err)
		}
		must(w.Commit())
		must(w.Close())
	}

	const memBlock = 1 << 20
	mem := storage.NewMemStore()
	id := block.ID(0)
	c := timeCalls(probeBudget, func() {
		id++
		writeBlock(mem, id, memBlock)
		must(mem.Delete(id))
	})
	vals["storage.mem_block_ns_per_MB"] = c.ns / (memBlock / 1e6)
	vals["storage.mem_block_alloc_B_per_MB"] = c.bytes / (memBlock / 1e6)

	const diskBlock = 8 << 20
	dir, err := os.MkdirTemp(scratchDir, "probe-")
	must(err)
	defer os.RemoveAll(dir)
	disk, err := storage.NewDiskStore(filepath.Join(dir, "dn"))
	must(err)
	c = timeCalls(probeBudget, func() {
		id++
		writeBlock(disk, id, diskBlock)
		must(disk.Delete(id))
	})
	vals["storage.disk_block_ns_per_MB"] = c.ns / (diskBlock / 1e6)
	id++
	writeBlock(disk, id, diskBlock)
	c = timeCalls(probeBudget, func() {
		r, n, err := disk.Open(id)
		must(err)
		got, err := io.CopyBuffer(struct{ io.Writer }{io.Discard}, r, data)
		must(err)
		must(r.Close())
		if got != n || n != diskBlock {
			must(fmt.Errorf("disk read: %d of %d bytes", got, n))
		}
		_, err = disk.Sums(id)
		must(err)
	})
	vals["storage.disk_read_ns_per_MB"] = c.ns / (diskBlock / 1e6)
}

// probeDatanode speaks proto to one lone datanode — no client, no
// namenode beyond a stub that accepts its reports — writing then
// reading 1 MB blocks over the in-memory transport into a MemStore.
func probeDatanode(vals map[string]float64) {
	nw := transport.NewMemNetwork(nil)
	nn := rpc.NewServer()
	rpc.Handle(nn, nnapi.MethodRegister, func(nnapi.RegisterReq) (nnapi.RegisterResp, error) { return nnapi.RegisterResp{}, nil })
	rpc.Handle(nn, nnapi.MethodHeartbeat, func(nnapi.HeartbeatReq) (nnapi.HeartbeatResp, error) { return nnapi.HeartbeatResp{}, nil })
	rpc.Handle(nn, nnapi.MethodBlockReceived, func(nnapi.BlockReceivedReq) (nnapi.BlockReceivedResp, error) {
		return nnapi.BlockReceivedResp{}, nil
	})
	rpc.Handle(nn, nnapi.MethodBlockReceivedBatch, func(nnapi.BlockReceivedBatchReq) (nnapi.BlockReceivedBatchResp, error) {
		return nnapi.BlockReceivedBatchResp{}, nil
	})
	ln, err := nw.Listen("nn")
	must(err)
	go nn.Serve(ln)
	defer nn.Close()
	store := storage.NewMemStore()
	dn, err := datanode.New(datanode.Options{Name: "dn1", Addr: "dn1", NamenodeAddr: "nn", Network: nw, Store: store})
	must(err)
	must(dn.Start())
	defer dn.Stop()

	const blockBytes = 1 << 20
	const packets = blockBytes / packetBytes
	data := make([]byte, packetBytes)
	rand.New(rand.NewSource(1)).Read(data)
	sums := checksum.Sum(data, chunkBytes)
	dial := func(op proto.Op, hdr any) *proto.Conn {
		conn, err := nw.Dial("bench-probe", "dn1")
		must(err)
		pc := proto.NewConn(conn)
		must(pc.WriteHeader(op, hdr))
		ack, err := pc.ReadAck()
		must(err)
		if ack.Kind != proto.AckHeader || !ack.OK() {
			must(fmt.Errorf("datanode set-up ack: %+v", ack))
		}
		return pc
	}
	id := block.ID(0)
	c := timeCalls(2*probeBudget, func() {
		id++
		pc := dial(proto.OpWriteBlock, &proto.WriteBlockHeader{
			Block: block.Block{ID: id, Gen: 1}, Client: "bench-probe", Mode: proto.ModeHDFS, BlockBytes: blockBytes,
		})
		for seq := int64(0); seq < packets; seq++ {
			must(pc.WritePacket(&proto.Packet{Seqno: seq, Offset: seq * packetBytes, Last: seq == packets-1, Sums: sums, Data: data}))
		}
		for seq := int64(0); seq < packets; seq++ {
			ack, err := pc.ReadAck()
			must(err)
			if ack.Seqno != seq || !ack.OK() {
				must(fmt.Errorf("datanode write ack %d: %+v", seq, ack))
			}
		}
		must(pc.Close())
		if id > 1 {
			must(store.Delete(id - 1)) // keep one finalized block for the read probe
		}
	})
	vals["datanode.write_1hop_MBps"] = blockBytes / 1e6 / (c.ns / 1e9)
	c = timeCalls(2*probeBudget, func() {
		pc := dial(proto.OpReadBlock, &proto.ReadBlockHeader{Block: block.Block{ID: id, Gen: 1}, Length: -1})
		for got := 0; ; {
			pkt, err := pc.ReadPacket()
			must(err)
			must(checksum.VerifyEncoded(pkt.Data, pkt.RawSums, chunkBytes))
			got += len(pkt.Data)
			last := pkt.Last
			pkt.Release()
			if last {
				if got != blockBytes {
					must(fmt.Errorf("datanode read: %d of %d bytes", got, blockBytes))
				}
				break
			}
		}
		must(pc.Close())
	})
	vals["datanode.serve_read_MBps"] = blockBytes / 1e6 / (c.ns / 1e9)
}

// placeView is the cluster a placement policy sees in the policy probe:
// nine datanodes in the paper's two racks.
type placeView struct {
	*topology.Topology
	reg *core.Registry
}

func (v placeView) Placeable() []string      { return v.Nodes() }
func (v placeView) Registry() *core.Registry { return v.reg }
func (v placeView) Lookup(name string) (block.DatanodeInfo, bool) {
	rack, ok := v.RackOf(name)
	return block.DatanodeInfo{Name: name, Addr: name, Rack: rack}, ok
}

// nullSubstrate answers every engine effect at once and successfully,
// so the probe times the writesched state machine alone.
type nullSubstrate struct {
	e    *writesched.Engine
	done bool
}

func (s *nullSubstrate) AddBlock(idx int, exclude []string, prev block.Block) {
	s.e.HandleAddBlock(idx, block.LocatedBlock{
		Block:   block.Block{ID: block.ID(idx + 1), Gen: 1},
		Targets: []block.DatanodeInfo{{Name: "dn1"}, {Name: "dn2"}, {Name: "dn3"}},
	}, nil)
}
func (s *nullSubstrate) RecoverBlock(int, int, block.Block, []string, []string) {}
func (s *nullSubstrate) Complete()                                              { s.e.HandleCompleteDone(nil) }
func (s *nullSubstrate) StartPipeline(idx int, lb block.LocatedBlock, shape policy.Shape, restream bool) {
	s.e.HandleFNFA(idx, time.Millisecond)
	s.e.HandleDrained(idx)
}
func (s *nullSubstrate) Heartbeat()                               {}
func (s *nullSubstrate) RecordSpeed(string, int64, time.Duration) {}
func (s *nullSubstrate) SpeedOf(string) float64                   { return 0 }
func (s *nullSubstrate) Ready(int)                                {}
func (s *nullSubstrate) BlockCommitted(int)                       {}
func (s *nullSubstrate) FileDone(err error)                       { must(err); s.done = true }

// probeControl times the control plane's layers: the rpc round trip,
// the addBlock message codec, namenode handlers without rpc, placement,
// and the client-side block state machine.
func probeControl(vals map[string]float64) {
	// rpc: an echo of an addBlock-sized message over the in-memory transport.
	nw := transport.NewMemNetwork(nil)
	srv := rpc.NewServer()
	rpc.Handle(srv, "echo", func(r nnapi.AddBlockReq) (nnapi.AddBlockReq, error) { return r, nil })
	ln, err := nw.Listen("echo")
	must(err)
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := rpc.Dial(nw, "bench-probe", "echo")
	must(err)
	defer cl.Close()
	req := nnapi.AddBlockReq{Path: "/meta/w0/f1", Client: "meta-w0", Mode: proto.ModeSmarth, Previous: block.Block{ID: 7, Gen: 1, NumBytes: metaBlockBytes}}
	c := timeCalls(probeBudget, func() {
		var got nnapi.AddBlockReq
		must(cl.Call("echo", req, &got))
		if got.Path != req.Path {
			must(fmt.Errorf("rpc echo: got %+v", got))
		}
	})
	vals["rpc.echo_rt_ns"], vals["rpc.echo_allocs"] = c.ns, c.allocs

	// nnapi: what one addBlock costs in encoding and decoding, both ways.
	resp := nnapi.AddBlockResp{Located: block.LocatedBlock{
		Block:   block.Block{ID: 8, Gen: 1},
		Targets: []block.DatanodeInfo{{Name: "dn1", Addr: "dn1", Rack: "/rack-a"}, {Name: "dn6", Addr: "dn6", Rack: "/rack-b"}, {Name: "dn7", Addr: "dn7", Rack: "/rack-b"}},
	}}
	c = timeCalls(probeBudget, func() {
		b, err := json.Marshal(req)
		must(err)
		var r nnapi.AddBlockReq
		must(json.Unmarshal(b, &r))
		b, err = json.Marshal(resp)
		must(err)
		var p nnapi.AddBlockResp
		must(json.Unmarshal(b, &p))
		if r.Path != req.Path || len(p.Located.Targets) != 3 {
			must(fmt.Errorf("addBlock codec: got %+v, %+v", r, p))
		}
	})
	vals["nnapi.addblock_codec_ns"], vals["nnapi.addblock_codec_allocs"] = c.ns, c.allocs

	// namenode: meta_2w's lifecycle as direct handler calls, one caller.
	cc, err := cluster.Start(cluster.Config{NumDatanodes: metaDatanodes, Seed: 1, Expiry: livenessWindow})
	must(err)
	defer cc.Stop()
	must(prefill(cc.NN, metaPrefill))
	call, speeds := directCalls(cc.NN), metaSpeeds()
	var addBlock []float64
	cycles := 0
	start := time.Now()
	for time.Since(start) < 2*probeBudget {
		cycles++
		must(lifecycle(call, "bench-probe", fmt.Sprintf("/probe/f%d", cycles), "dn1", speeds, func(d time.Duration) {
			addBlock = append(addBlock, float64(d))
		}, nil, nil))
	}
	vals["namenode.lifecycle_direct_ops_per_s"] = float64(cycles*metaOpsPerCycle) / time.Since(start).Seconds()
	vals["namenode.addblock_direct_ns"] = median(addBlock)

	// policy and core: one placement, one TopN, on nine nodes in two racks.
	view := placeView{topology.New(), core.NewRegistry()}
	var names []string
	for i := 0; i < metaDatanodes; i++ {
		view.Add(cluster.DatanodeName(i), shapedRack(i))
		names = append(names, cluster.DatanodeName(i))
	}
	view.reg.Update("bench-probe", speeds)
	pol, err := policy.New(policy.Default)
	must(err)
	in := policy.PlaceInput{Client: "bench-probe", Mode: proto.ModeSmarth, Replication: 3, Rng: rand.New(rand.NewSource(1))}
	vals["policy.place_ns"] = timeCalls(probeBudget, func() {
		targets, err := pol.Place(view, in)
		must(err)
		if len(targets) != 3 {
			must(fmt.Errorf("policy.Place: %d targets", len(targets)))
		}
	}).ns
	vals["core.topn_ns"] = timeCalls(probeBudget, func() {
		if top := view.reg.TopN("bench-probe", 3, names); len(top) != 3 {
			must(fmt.Errorf("core.TopN: %d names", len(top)))
		}
	}).ns

	// writesched: a 64-block SMARTH file through a substrate that answers at once.
	const blocks = 64
	c = timeCalls(probeBudget, func() {
		sub := &nullSubstrate{}
		sub.e = writesched.New(writesched.Config{Path: "/probe", Mode: proto.ModeSmarth, Replication: 3, MaxPipelines: 3, Seed: 1}, sub)
		for i := 0; i < blocks; i++ {
			sub.e.Offer(1 << 20)
		}
		sub.e.CloseFile()
		if !sub.done {
			must(fmt.Errorf("writesched: file not done after %d blocks", blocks))
		}
	})
	vals["writesched.block_cycle_ns"] = c.ns / blocks
}

// probeSim times the event engine alone and single points of figure 13.
func probeSim(vals map[string]float64) {
	const timers, events = 64, 1 << 18
	c := timeCalls(probeBudget, func() {
		eng := des.New()
		fired, scheduled := 0, timers
		var tick func()
		tick = func() {
			fired++
			if scheduled < events {
				scheduled++
				eng.Schedule(time.Duration(1+fired%7)*time.Millisecond, tick)
			}
		}
		for i := 0; i < timers; i++ {
			eng.Schedule(time.Duration(i)*time.Microsecond, tick)
		}
		eng.Run()
		if fired != events {
			must(fmt.Errorf("des: fired %d of %d events", fired, events))
		}
	})
	vals["des.events_per_s"] = events / (c.ns / 1e9)

	for _, gb := range []int64{1, 8} {
		for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
			start := time.Now()
			res, err := sim.Run(sim.Config{Preset: ec2.HeteroCluster, FileSize: gb * sim.GB, Seed: gb, Mode: mode})
			must(err)
			if res.Bytes != gb*sim.GB {
				must(fmt.Errorf("sim: %d of %d bytes", res.Bytes, gb*sim.GB))
			}
			name := fmt.Sprintf("sim.point_wall_ms.%s_%dGB", map[proto.WriteMode]string{proto.ModeHDFS: "hdfs", proto.ModeSmarth: "smarth"}[mode], gb)
			vals[name] = float64(time.Since(start)) / 1e6
		}
	}
}
