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
	"time"
	"unsafe"

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
	stores := make([]storage.Store, hops)
	for i := range stores {
		stores[i] = newStoreOfKind(tb, kind)
	}
	return startChainOn(tb, stores...)
}

// startChainOn is startChain with hop i on stores[i].
func startChainOn(tb testing.TB, stores ...storage.Store) *chain {
	tb.Helper()
	return startChainTimed(tb, 0, stores...)
}

// startChainTimed is startChainOn with every hop's DataTimeout set (0
// for the default).
func startChainTimed(tb testing.TB, dataTimeout time.Duration, stores ...storage.Store) *chain {
	tb.Helper()
	c := &chain{net: transport.NewMemNetwork(nil)}
	startFakeNN(tb, c.net)
	for i, store := range stores {
		name := fmt.Sprintf("dn%d", i+1)
		st := watch(store)
		dn, err := New(Options{Name: name, Addr: name, NamenodeAddr: "nn", Network: c.net, Store: st, DataTimeout: dataTimeout})
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
func (c *chain) tap(t *testing.T, addr, target string, mangle func(*proto.Packet)) {
	t.Helper()
	l, err := c.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { l.Close(); <-done })
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
}

// TestReceiveMatchesReference is the differential test: random blocks
// through one- and three-hop pipelines on both stores. Clean, every hop's
// stored bytes and RawSums equal the source and the one-shot sums of it —
// the last hop's replica being what travelled the whole chain. With one
// payload bit or one checksum byte flipped at a random packet in front of
// a random hop, that hop refuses the packet with StatusErrorChecksum,
// the client reads that refusal naming that hop, and neither it nor
// anything behind it stores a byte past the last good packet.
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
					if fault != 0 && badHop > 0 {
						addr[badHop] = "tap"
						c.tap(t, "tap", c.dns[badHop].Info().Addr, mangle)
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
					if fault == 0 && failed != nil {
						t.Fatalf("round %d: clean pipeline refused a packet: %+v", round, failed)
					}
					if fault != 0 && (failed == nil || failed.Seqno != int64(badPkt) || proto.Blame(failed.Statuses) != badHop || failed.Statuses[badHop] != proto.StatusErrorChecksum) {
						t.Fatalf("round %d: client read %+v for corrupt packet %d, want hop %d's StatusErrorChecksum", round, failed, badPkt, badHop)
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
			// The tail acks each packet as it stores it: packet 0's ack
			// comes before the refusal.
			if ack, err := pc.ReadAck(); err != nil || !ack.OK() || ack.Seqno != 0 {
				t.Fatalf("first packet: ack %+v, %v", ack, err)
			}
			ack, err := pc.ReadAck()
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

// TestOutOfOrderPacketRefused: a datanode takes a block's packets in
// order — seqno 0, 1, 2, …, each at the offset where the one before it
// ended — and refuses anything else with StatusError before storing a
// byte of it. A re-sent packet's checksums verify all the same, so
// without the check it would be stored, and committed, twice.
func TestOutOfOrderPacketRefused(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	pkts := packetsOf(randomBytes(5, 3*cs), cs) // three whole chunks and an empty Last packet
	for _, tc := range []struct {
		name string
		bad  func(p *proto.Packet) // turns packet 1 into what is sent in its place
	}{
		{"duplicate", func(p *proto.Packet) { *p = pkts[0] }},
		{"skipped seqno", func(p *proto.Packet) { p.Seqno = 2 }},
		{"wrong offset", func(p *proto.Packet) { p.Offset += cs }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startChain(t, 1, "mem")
			b := block.Block{ID: 1, Gen: 1}
			pc := c.open(t, b, 0, nil)
			defer pc.Close()
			bad := pkts[1]
			tc.bad(&bad)
			// Then the whole block in order: what a datanode that took the bad
			// packet would commit.
			for _, p := range append([]proto.Packet{pkts[0], bad}, pkts[1:]...) {
				if pc.WritePacket(&p) != nil {
					break // refused: the pipeline is down
				}
			}
			if ack, err := pc.ReadAck(); err != nil || !ack.OK() || ack.Seqno != 0 {
				t.Fatalf("packet 0: ack %+v, %v", ack, err)
			}
			ack, err := pc.ReadAck()
			if err != nil || ack.Seqno != bad.Seqno || len(ack.Statuses) != 1 || ack.Statuses[0] != proto.StatusError {
				t.Fatalf("out-of-order packet: ack %+v, %v; want StatusError", ack, err)
			}
			c.stop()
			if appended, committed := c.stores[0].state(b.ID); appended != cs || committed {
				t.Fatalf("appended %d (want packet 0's %d), committed %v", appended, cs, committed)
			}
		})
	}
}

// lendStore checks, at every hop, where a payload is when the datanode
// appends it: in memory the writer lent for it, each lend beginning where
// the last one ended — the replica's own tail.
type lendStore struct {
	storage.Store
	mu     sync.Mutex
	landed int      // payloads appended from lent memory
	strays []string // what was appended from anywhere else
}

type lendWriter struct {
	storage.BlockWriter
	s    *lendStore
	lent []byte // the last Lend's answer
	next uintptr
}

func (s *lendStore) Create(b block.Block, overwrite bool) (storage.BlockWriter, error) {
	w, err := s.Store.Create(b, overwrite)
	if err != nil {
		return nil, err
	}
	return &lendWriter{BlockWriter: w, s: s}, nil
}

func (w *lendWriter) SizeHint(n int64) { w.BlockWriter.(storage.SizeHinter).SizeHint(n) }

func (w *lendWriter) Lend(offset int64, n int) []byte {
	w.lent = w.BlockWriter.Lend(offset, n)
	return w.lent
}

func (w *lendWriter) Append(p, raw []byte) error {
	w.s.mu.Lock()
	switch at := uintptr(unsafe.Pointer(unsafe.SliceData(p))); {
	case len(w.lent) < len(p) || at != uintptr(unsafe.Pointer(unsafe.SliceData(w.lent))):
		w.s.strays = append(w.s.strays, fmt.Sprintf("%d bytes not in lent memory", len(p)))
	case w.next != 0 && at != w.next:
		w.s.strays = append(w.s.strays, fmt.Sprintf("%d bytes lent away from the replica's tail", len(p)))
	default:
		w.s.landed++
		w.next = at + uintptr(len(p))
	}
	w.s.mu.Unlock()
	w.lent = nil
	return w.BlockWriter.Append(p, raw)
}

// TestPayloadLandsInTheReplica: on a MemStore every hop of a three-hop
// chain reads each payload from the transport into the replica's own
// tail, which its writer lends, and appends it from there — so between
// the transport and the committed replica a payload is copied once.
func TestPayloadLandsInTheReplica(t *testing.T) {
	stores := []*lendStore{{Store: storage.NewMemStore()}, {Store: storage.NewMemStore()}, {Store: storage.NewMemStore()}}
	c := startChainOn(t, stores[0], stores[1], stores[2])
	data := randomBytes(11, 1<<20+5000) // sixteen 64 KB packets and a short one
	pkts := packetsOf(data, proto.DefaultPacketSize)
	b := block.Block{ID: 1, Gen: 1}
	pc := c.open(t, b, int64(len(data)), nil)
	defer pc.Close()
	for i := range pkts {
		if err := pc.WritePacket(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for {
		ack, err := pc.ReadAck()
		if err != nil || !ack.OK() {
			t.Fatalf("ack %+v, %v", ack, err)
		}
		if ack.Seqno == pkts[len(pkts)-1].Seqno {
			break
		}
	}
	c.stop()
	for i, s := range stores {
		if s.landed != len(pkts) || len(s.strays) != 0 {
			t.Errorf("hop %d: %d of %d payloads landed in the replica; strays: %v", i, s.landed, len(pkts), s.strays)
		}
		r, _, err := s.Open(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r)
		r.Close()
		if !bytes.Equal(got, data) {
			t.Errorf("hop %d: replica differs from the block sent", i)
		}
	}
}

// FuzzReceive streams arbitrary packet sequences into one- and two-hop
// chains. Each packet is five bytes of input: flags (bit 0 Last, bit 1 a
// flipped checksum byte), a seqno and an offset nudge (int8, 0 = in
// order), and a 16-bit length. Whatever arrives, no datanode panics or
// hangs, and each hop commits if and only if the stream up to its first
// Last packet was valid — in order, whole chunks but for the last, sums
// intact — and then stores exactly the payloads' concatenation.
func FuzzReceive(f *testing.F) {
	const cs = checksum.DefaultChunkSize
	f.Add(false, []byte{1, 0, 0, 0, 0})                     // an empty block
	f.Add(true, []byte{0, 0, 0, 2, 0, 1, 0, 0, 0, 100})     // 512 B, then a 100 B Last packet
	f.Add(true, []byte{0, 0, 0, 2, 0, 1, 0xff, 0xfe, 2, 0}) // a duplicate as the Last packet
	f.Add(false, []byte{0, 0, 0, 2, 0, 1, 1, 0, 2, 0})      // a skipped seqno
	f.Add(false, []byte{0, 0, 0, 2, 0, 1, 0, 7, 0, 9})      // a wrong offset
	f.Add(true, []byte{0, 0, 0, 1, 0, 3, 0, 0, 0, 9})       // a short interior packet, a flipped sum
	f.Add(false, []byte{0, 0, 0, 4, 0, 0, 0, 0, 2, 0})      // no Last packet
	src := randomBytes(9, 16*4*cs)
	f.Fuzz(func(t *testing.T, twoHops bool, in []byte) {
		var pkts []proto.Packet
		var want []byte
		valid, refused := false, false
		for ; len(in) >= 5 && len(pkts) < 16 && !valid && !refused; in = in[5:] {
			n := (int(in[3])<<8 | int(in[4])) % (4*cs + 1)
			seqno := int64(len(pkts))
			p := proto.Packet{Seqno: seqno + int64(int8(in[1])), Offset: int64(len(want) + int(int8(in[2]))),
				Last: in[0]&1 != 0, Data: src[len(want) : len(want)+n]}
			p.RawSums = checksum.AppendEncoded(nil, p.Data, cs)
			flip := in[0]&2 != 0 && n > 0
			if flip {
				p.RawSums[int(in[4])%len(p.RawSums)] ^= 0x40
			}
			refused = p.Seqno != seqno || p.Offset != int64(len(want)) || flip || !p.Last && n%cs != 0
			valid = p.Last && !refused
			if !refused {
				want = append(want, p.Data...)
			}
			pkts = append(pkts, p)
		}
		hops := 1
		if twoHops {
			hops = 2
		}
		c := startChain(t, hops, "mem")
		b := block.Block{ID: 1, Gen: 1}
		pc := c.open(t, b, 0, nil)
		// Acks are drained while the packets go out, up to the last one's.
		final := make(chan bool, 1)
		go func() {
			for {
				ack, err := pc.ReadAck()
				if err != nil || !ack.OK() || valid && ack.Seqno == pkts[len(pkts)-1].Seqno {
					final <- err == nil && ack.OK()
					return
				}
			}
		}()
		for i := range pkts {
			if pc.WritePacket(&pkts[i]) != nil {
				break
			}
		}
		if !valid && !refused {
			pc.Close() // the datanode waits for more: hang up
		}
		if got := <-final; got != valid {
			t.Fatalf("final ack %v for a stream that is valid: %v", got, valid)
		}
		pc.Close()
		c.stop()
		for hop, st := range c.stores {
			if _, committed := st.state(b.ID); committed != valid {
				t.Fatalf("hop %d committed %v a stream that is valid: %v", hop, committed, valid)
			}
			if !valid {
				continue
			}
			r, _, err := st.Open(b.ID)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("hop %d stored %d bytes (%v), want the %d sent", hop, len(got), err, len(want))
			}
		}
	})
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
