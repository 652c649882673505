package datanode

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/proto"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The receive path lands every payload once — in the replica, on a
// MemStore — verifies it there, and stores the checksums it verified
// against. These tests hold that path to the one-shot reference
// (checksum.AppendEncoded of the source) hop by hop, on both stores, across packet
// sizes, tails and injected corruption; budget its allocations; and time
// it (BenchmarkReceiveBlock).

// watchStore records, per block, how many bytes the datanode appended and
// whether it committed: what a refused packet must leave untouched is
// asserted on these, since an aborted replica is gone from the store by
// the time a test could look.
type watchStore struct {
	storage.Store
	mu        sync.Mutex
	appended  map[block.ID]int64
	committed map[block.ID]bool
}

func watch(s storage.Store) *watchStore {
	return &watchStore{Store: s, appended: map[block.ID]int64{}, committed: map[block.ID]bool{}}
}

type watchWriter struct {
	storage.BlockWriter
	s  *watchStore
	id block.ID
}

func (s *watchStore) Create(b block.Block, overwrite bool) (storage.BlockWriter, error) {
	w, err := s.Store.Create(b, overwrite)
	if err != nil {
		return nil, err
	}
	return &watchWriter{BlockWriter: w, s: s, id: b.ID}, nil
}

func (w *watchWriter) SizeHint(n int64) { w.BlockWriter.(storage.SizeHinter).SizeHint(n) }

func (w *watchWriter) Append(p, raw []byte) error {
	err := w.BlockWriter.Append(p, raw)
	if err == nil {
		w.s.mu.Lock()
		w.s.appended[w.id] += int64(len(p))
		w.s.mu.Unlock()
	}
	return err
}

func (w *watchWriter) Commit() error {
	err := w.BlockWriter.Commit()
	if err == nil {
		w.s.mu.Lock()
		w.s.committed[w.id] = true
		w.s.mu.Unlock()
	}
	return err
}

func (s *watchStore) state(id block.ID) (appended int64, committed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended[id], s.committed[id]
}

// chain is hops datanodes dn1…dnN on one in-memory network behind a stub
// namenode.
type chain struct {
	net    *transport.MemNetwork
	dns    []*Datanode
	stores []*watchStore
	lastID block.ID // writeBlocks' running block ID
}

func newStoreOfKind(tb testing.TB, kind string) storage.Store {
	if kind == "mem" {
		return storage.NewMemStore()
	}
	s, err := storage.NewDiskStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func startChain(tb testing.TB, hops int, kind string) *chain {
	tb.Helper()
	c := &chain{net: transport.NewMemNetwork(nil)}
	startFakeNN(tb, c.net)
	for i := 1; i <= hops; i++ {
		name := fmt.Sprintf("dn%d", i)
		st := watch(newStoreOfKind(tb, kind))
		dn, err := New(Options{Name: name, Addr: name, NamenodeAddr: "nn", Network: c.net, Store: st})
		if err != nil {
			tb.Fatal(err)
		}
		if err := dn.Start(); err != nil {
			tb.Fatal(err)
		}
		c.dns, c.stores = append(c.dns, dn), append(c.stores, st)
	}
	tb.Cleanup(c.stop)
	return c
}

// stop returns once every pipeline handler has unwound.
func (c *chain) stop() {
	for _, dn := range c.dns {
		dn.Stop()
	}
}

// targets lists the hops behind dn1, with addr(i) overriding hop i's
// address (a tap in front of it).
func (c *chain) targets(addr map[int]string) []block.DatanodeInfo {
	var out []block.DatanodeInfo
	for i := 1; i < len(c.dns); i++ {
		info := c.dns[i].Info()
		if a, ok := addr[i]; ok {
			info.Addr = a
		}
		out = append(out, info)
	}
	return out
}

// open dials dn1 and sets up a write pipeline through the whole chain.
func (c *chain) open(tb testing.TB, b block.Block, hint int64, addr map[int]string) *proto.Conn {
	tb.Helper()
	conn, err := c.net.Dial("client", "dn1")
	if err != nil {
		tb.Fatal(err)
	}
	pc := proto.NewConn(conn)
	hdr := &proto.WriteBlockHeader{Block: b, Targets: c.targets(addr), Client: "client", Mode: proto.ModeHDFS, BlockBytes: hint}
	if err := pc.WriteHeader(proto.OpWriteBlock, hdr); err != nil {
		tb.Fatal(err)
	}
	if setup, err := pc.ReadAck(); err != nil || setup.Kind != proto.AckHeader || !setup.OK() {
		tb.Fatalf("setup ack = %+v, %v", setup, err)
	}
	return pc
}

// packetsOf cuts data into packets of size bytes with their checksums;
// a block that ends on a packet boundary (or is empty) gets an empty Last
// packet.
func packetsOf(data []byte, size int) []proto.Packet {
	var out []proto.Packet
	for off := 0; off < len(data); off += size {
		p := data[off:min(off+size, len(data))]
		out = append(out, proto.Packet{Seqno: int64(len(out)), Offset: int64(off), Data: p,
			RawSums: checksum.AppendEncoded(nil, p, checksum.DefaultChunkSize)})
	}
	if len(data)%size == 0 {
		out = append(out, proto.Packet{Seqno: int64(len(out)), Offset: int64(len(data))})
	}
	out[len(out)-1].Last = true
	return out
}

// tap is a protocol-level man in the middle in front of one hop: it
// relays the pipeline to target, handing every packet to mangle first.
// refusal, once the pipeline is down, returns the first failed ack the
// hop sent back (nil if none): upstream hops may garble it — an error
// ack overtakes the acks still waiting on the mirrors, which the hop
// above reports as a seqno skew — so what the hop itself said is read
// here.
func (c *chain) tap(t *testing.T, addr, target string, mangle func(*proto.Packet)) (refusal func() *proto.Ack) {
	t.Helper()
	l, err := c.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { l.Close(); <-done })
	var failed *proto.Ack
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		up := proto.NewConn(conn)
		defer up.Close()
		_, hdr, err := up.ReadHeader()
		if err != nil {
			return
		}
		dconn, err := c.net.Dial(addr, target)
		if err != nil {
			return
		}
		down := proto.NewConn(dconn)
		defer down.Close()
		if down.WriteHeader(proto.OpWriteBlock, hdr) != nil {
			return
		}
		acks := make(chan struct{})
		go func() { // acks flow back untouched
			defer close(acks)
			defer up.Close()
			for {
				ack, err := down.ReadAck()
				if err != nil {
					return
				}
				if !ack.OK() && failed == nil {
					failed = &proto.Ack{Kind: ack.Kind, Seqno: ack.Seqno, Statuses: append([]proto.Status(nil), ack.Statuses...)}
				}
				if up.WriteAck(ack) != nil {
					return
				}
			}
		}()
		for {
			pkt, err := up.ReadPacket()
			if err != nil {
				down.Close() // upstream is gone: take the hop down with it
				break
			}
			mangle(pkt)
			err = down.WritePacket(pkt)
			pkt.Release()
			if err != nil {
				break // the hop hung up; its last acks are still to be relayed
			}
		}
		<-acks
	}()
	return func() *proto.Ack { l.Close(); <-done; return failed }
}

// TestReceiveMatchesReference is the differential test: random blocks
// through one- and three-hop pipelines on both stores. Clean, every hop's
// stored bytes and RawSums equal the source and the one-shot sums of it —
// the last hop's replica being what travelled the whole chain. With one
// payload bit or one checksum byte flipped at a random packet in front of
// a random hop, that hop refuses the packet with StatusErrorChecksum and
// neither it nor anything behind it stores a byte past the last good
// packet.
func TestReceiveMatchesReference(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	for _, kind := range []string{"mem", "disk"} {
		for _, hops := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%dhop", kind, hops), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(29*hops + len(kind))))
				for round := 0; round < 9; round++ {
					c := startChain(t, hops, kind)
					size := cs * (1 + rng.Intn(512)) // 512 B … 256 KB, whole chunks
					if round == 0 {
						size = 256 << 10
					}
					n := rng.Intn(12*size + 1)
					switch round % 3 {
					case 1:
						n -= n % size // ends on a packet boundary: empty Last packet
					case 2:
						n = 0 // an empty block is one empty packet
					}
					data := randomBytes(int64(round), n)
					pkts := packetsOf(data, size)
					fault := round % 3 // 0 none, 1 payload bit, 2 checksum byte
					badPkt, badHop := rng.Intn(len(pkts)), rng.Intn(hops)
					if len(pkts[badPkt].Data) == 0 {
						fault = 0 // nothing to corrupt in an empty packet
					}
					mangle := func(p *proto.Packet) {
						if p.Seqno != int64(badPkt) {
							return
						}
						// The source stays clean: corrupt a copy.
						if fault == 1 {
							p.Data = append([]byte(nil), p.Data...)
							p.Data[rng.Intn(len(p.Data))] ^= 1 << rng.Intn(8)
						} else {
							p.RawSums = append([]byte(nil), p.RawSums...)
							p.RawSums[rng.Intn(len(p.RawSums))] ^= 0x40
						}
					}
					addr := map[int]string{}
					var refusal func() *proto.Ack // what hop badHop answered, read in front of it
					if fault != 0 && badHop > 0 {
						addr[badHop] = "tap"
						refusal = c.tap(t, "tap", c.dns[badHop].Info().Addr, mangle)
					}
					b := block.Block{ID: block.ID(round + 1), Gen: 1}
					hint := int64(len(data))
					if round%2 == 1 {
						hint = 0 // no hint: the replica buffer grows as packets arrive
					}
					pc := c.open(t, b, hint, addr)
					var good int64 // bytes in the packets before the bad one
					for i := range pkts {
						p := pkts[i]
						if fault != 0 && badHop == 0 {
							mangle(&p)
						}
						if i < badPkt {
							good += int64(len(p.Data))
						}
						if pc.WritePacket(&p) != nil {
							break // the pipeline is already down; the acks say why
						}
					}
					var failed *proto.Ack
					for failed == nil {
						ack, err := pc.ReadAck()
						if err != nil {
							if fault == 0 {
								t.Fatalf("round %d: clean pipeline broke: %v", round, err)
							}
							break
						}
						if !ack.OK() {
							failed = &proto.Ack{Seqno: ack.Seqno, Statuses: append([]proto.Status(nil), ack.Statuses...)}
						} else if fault != 0 && ack.Seqno >= int64(badPkt) {
							t.Fatalf("round %d: corrupt packet %d acknowledged: %+v", round, badPkt, ack)
						} else if ack.Seqno == int64(len(pkts)-1) {
							break
						}
					}
					pc.Close()
					c.stop()
					if refusal != nil {
						failed = refusal()
					}
					if fault == 0 && failed != nil {
						t.Fatalf("round %d: clean pipeline refused a packet: %+v", round, failed)
					}
					if fault != 0 && (failed == nil || failed.Seqno != int64(badPkt) || failed.Statuses[0] != proto.StatusErrorChecksum) {
						t.Fatalf("round %d: hop %d answered %+v to a corrupt packet %d, want StatusErrorChecksum", round, badHop, failed, badPkt)
					}
					for hop, st := range c.stores {
						appended, committed := st.state(b.ID)
						if fault != 0 && hop >= badHop {
							if committed || appended > good || (hop == badHop && appended != good) {
								t.Fatalf("round %d: hop %d behind a fault at hop %d, packet %d: appended %d (good prefix %d), committed %v",
									round, hop, badHop, badPkt, appended, good, committed)
							}
							continue
						}
						if fault != 0 {
							continue // upstream of the fault: whatever it had when the pipeline broke
						}
						if !committed || appended != int64(len(data)) {
							t.Fatalf("round %d hop %d: appended %d of %d, committed %v", round, hop, appended, len(data), committed)
						}
						r, length, err := st.Open(b.ID)
						if err != nil {
							t.Fatal(err)
						}
						got, err := io.ReadAll(r)
						sums := bytes.Clone(r.RawSums())
						r.Close()
						if err != nil || length != int64(len(data)) || !bytes.Equal(got, data) {
							t.Fatalf("round %d hop %d: stored %d bytes (err %v) differ from the %d sent", round, hop, len(got), err, len(data))
						}
						if want := checksum.AppendEncoded(nil, data, cs); !bytes.Equal(sums, want) {
							t.Fatalf("round %d hop %d: stored checksums differ from the reference (%d bytes, want %d)", round, hop, len(sums), len(want))
						}
					}
				}
			})
		}
	}
}

// TestMisalignedInteriorPacketRefused: every packet but a block's last
// carries whole chunks, or the checksums a store keeps stop lining up
// with its bytes. A datanode answers anything else with StatusError and
// stores none of it.
func TestMisalignedInteriorPacketRefused(t *testing.T) {
	for _, kind := range []string{"mem", "disk"} {
		t.Run(kind, func(t *testing.T) {
			c := startChain(t, 1, kind)
			b := block.Block{ID: 1, Gen: 1}
			pc := c.open(t, b, 0, nil)
			defer pc.Close()
			data := randomBytes(1, 2*checksum.DefaultChunkSize+100)
			first := packetsOf(data[:checksum.DefaultChunkSize], checksum.DefaultChunkSize)[0]
			odd := packetsOf(data, len(data))[0]
			odd.Seqno, odd.Offset, odd.Last = 1, int64(len(first.Data)), false
			for _, p := range []proto.Packet{first, odd} {
				if err := pc.WritePacket(&p); err != nil {
					t.Fatal(err)
				}
			}
			// The refusal comes straight from the receive loop and may overtake
			// the responder's ack of the packet before it.
			ack, err := pc.ReadAck()
			if err == nil && ack.OK() && ack.Seqno == 0 {
				ack, err = pc.ReadAck()
			}
			if err != nil || ack.Seqno != 1 || len(ack.Statuses) != 1 || ack.Statuses[0] != proto.StatusError {
				t.Fatalf("misaligned interior packet: ack %+v, %v; want StatusError", ack, err)
			}
			c.stop()
			if appended, committed := c.stores[0].state(b.ID); appended != int64(len(first.Data)) || committed {
				t.Fatalf("appended %d (want the first packet's %d), committed %v", appended, len(first.Data), committed)
			}
		})
	}
}

// writeBlocks pushes count blocks through c from one fake client in
// 64 KB packets, waiting for each block's last ack. Each block's replicas
// are deleted a block later — by then its pipelines have unwound and
// unpinned them — so MemStore buffers recycle.
func writeBlocks(tb testing.TB, c *chain, count int, data, rawSums []byte) {
	const packet = proto.DefaultPacketSize
	const sumsPerPacket = packet / checksum.DefaultChunkSize * checksum.BytesPerChecksum
	packets := int64(len(data) / packet)
	for i := 0; i < count; i++ {
		c.lastID++
		b := block.Block{ID: c.lastID, Gen: 1}
		pc := c.open(tb, b, int64(len(data)), nil)
		for seq := int64(0); seq < packets; seq++ {
			pkt := proto.Packet{Seqno: seq, Offset: seq * packet, Last: seq == packets-1,
				RawSums: rawSums[seq*sumsPerPacket : (seq+1)*sumsPerPacket], Data: data[seq*packet : (seq+1)*packet]}
			if err := pc.WritePacket(&pkt); err != nil {
				tb.Fatal(err)
			}
		}
		for {
			ack, err := pc.ReadAck()
			if err != nil || !ack.OK() {
				tb.Fatalf("block %v: ack %+v, %v", b, ack, err)
			}
			if ack.Seqno == packets-1 {
				break
			}
		}
		pc.Close()
		if b.ID > 1 {
			for _, st := range c.stores {
				if err := st.Delete(b.ID - 1); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
}

// TestAllocReceiveBlock budgets what one 1 MB block costs one datanode
// (and the fake client's conn): conn and pipeline set-up only. The store
// keeps the wire checksums in a pooled buffer — a []uint32 per replica
// would be 8 KB more — and a conn's read buffer is 1 KB: the 8 KB it used
// to be would add 16 KB across the two conns.
func TestAllocReceiveBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	c := startChain(t, 1, "mem")
	data := randomBytes(7, 1<<20)
	rawSums := checksum.AppendEncoded(nil, data, checksum.DefaultChunkSize)
	writeBlocks(t, c, 8, data, rawSums) // warm the pools
	// The cheapest of three batches, with the collector held off: a
	// garbage collection that empties the pools mid-batch re-buys a 1 MB
	// replica buffer, which is weather; a per-block regression shows in
	// all of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const blocks = 16
	best := ^uint64(0)
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		writeBlocks(t, c, blocks, data, rawSums)
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/blocks)
	}
	t.Logf("one 1 MB block through one hop allocates %d B", best)
	if best > allocBudgetReceiveBlock {
		t.Fatalf("one block allocates %d B, budget %d B", best, allocBudgetReceiveBlock)
	}
}

// allocBudgetReceiveBlock is what TestAllocReceiveBlock read when it was
// set (6.8–7.0 KB: two conns with their read buffers and rings'
// bookkeeping, the pipeline's queues and goroutines, the header) plus
// headroom — half of what either regression above would add.
const allocBudgetReceiveBlock = 8 << 10

// BenchmarkReceiveBlock times 1 MB blocks in 64 KB packets through one
// and three datanodes on each store, until the last hop's last ack:
// MB/s is the receive path's throughput (verify, store, mirror, ack),
// B/op what a block costs in garbage.
func BenchmarkReceiveBlock(b *testing.B) {
	data := randomBytes(7, 1<<20)
	rawSums := checksum.AppendEncoded(nil, data, checksum.DefaultChunkSize)
	for _, kind := range []string{"mem", "disk"} {
		for _, hops := range []int{1, 3} {
			b.Run(fmt.Sprintf("%s/%dhop", kind, hops), func(b *testing.B) {
				c := startChain(b, hops, kind)
				writeBlocks(b, c, 2, data, rawSums)
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				writeBlocks(b, c, b.N, data, rawSums)
			})
		}
	}
}
