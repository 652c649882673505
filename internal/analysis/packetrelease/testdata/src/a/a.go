// Package a is the packetrelease analysistest fixture: each function
// is one ownership pattern, failing cases annotated with want
// expectations and the clean idioms proving the analyzer stays silent
// on correct code.
package a

import (
	"repro/internal/bufpool"
	"repro/internal/proto"
)

var errTooBig = errString("too big")

type errString string

func (e errString) Error() string { return string(e) }

func use([]byte) {}

// leakOnError is the early-return leak class: the happy path releases,
// the mid-function error return does not.
func leakOnError(c *proto.Conn, w func([]byte) error) error {
	p, err := c.ReadPacket()
	if err != nil {
		return err // clean: p is nil on the error path
	}
	if err := w(p.Data); err != nil {
		return err // want `p may still be owned on this return path`
	}
	p.Release()
	return nil
}

// deferRelease is the canonical clean shape.
func deferRelease(c *proto.Conn) error {
	p, err := c.ReadPacket()
	if err != nil {
		return err
	}
	defer p.Release()
	use(p.Data)
	return nil
}

// explicitRelease on every path is also clean.
func explicitRelease(c *proto.Conn) {
	p, err := c.ReadPacket()
	if err != nil {
		return
	}
	if len(p.Data) == 0 {
		p.Release()
		return
	}
	use(p.Data)
	p.Release()
}

func doubleRelease(c *proto.Conn) {
	p, err := c.ReadPacket()
	if err != nil {
		return
	}
	p.Release()
	p.Release() // want `p is released a second time`
}

func useAfterRelease(c *proto.Conn) int {
	p, err := c.ReadPacket()
	if err != nil {
		return 0
	}
	p.Release()
	return len(p.Data) // want `p is used after Release/Put returned it to the pool`
}

func discarded(c *proto.Conn) {
	_, _ = c.ReadPacket() // want `result of c.ReadPacket is discarded without Release/Put`
}

// The placing decoder: the payload may land in memory the lender owns,
// but the packet is the caller's all the same — released exactly once on
// every path, whether the lender accepted or declined.

// tailLender lends its tail the way a MemStore writer does; declining
// returns nil.
type tailLender struct {
	data    []byte
	decline bool
}

func (r *tailLender) Lend(offset int64, n int) []byte {
	if r.decline || offset != int64(len(r.data)) || cap(r.data)-len(r.data) < n {
		return nil
	}
	return r.data[len(r.data) : len(r.data)+n]
}

func (r *tailLender) Append(p []byte) error {
	if len(p) == 0 {
		return errTooBig
	}
	r.data = r.data[:len(r.data)+len(p)]
	return nil
}

// placedLeak is the receive loop with its early return between read and
// append left unguarded: a refused packet is never released.
func placedLeak(c *proto.Conn, r *tailLender) error {
	p, err := c.ReadPacketInto(r)
	if err != nil {
		return err // clean: p is nil on the error path
	}
	if len(p.Data)%512 != 0 {
		return errTooBig // want `p may still be owned on this return path`
	}
	err = r.Append(p.Data)
	p.Release()
	return err
}

// placedClean releases on the refusal path, the append-failure path and
// the happy path; that Data lives in the replica changes nothing.
func placedClean(c *proto.Conn, r *tailLender) error {
	p, err := c.ReadPacketInto(r)
	if err != nil {
		return err
	}
	if len(p.Data)%512 != 0 {
		p.Release()
		return errTooBig
	}
	if err := r.Append(p.Data); err != nil {
		p.Release()
		return err
	}
	p.Release()
	return nil
}

// placedDeclined: a lender that declines (or none at all) leaves the
// payload in the packet's own frame, and the duty is the same.
func placedDeclined(c *proto.Conn) int {
	p, err := c.ReadPacketInto(&tailLender{decline: true})
	if err != nil {
		return 0
	}
	n := len(p.Data)
	p.Release()
	p.Release() // want `p is released a second time`
	return n
}

// placedUseAfterRelease: the payload outlives the packet only in the
// lender's memory, never through the packet.
func placedUseAfterRelease(c *proto.Conn, r *tailLender) []byte {
	p, err := c.ReadPacketInto(r)
	if err != nil {
		return nil
	}
	p.Release()
	return p.Data // want `p is used after Release/Put returned it to the pool`
}

// placedForward is the datanode shape: Data in the replica, the packet
// handed to the forwarder, which releases it.
func placedForward(c *proto.Conn, r *tailLender, sink func(*proto.Packet) bool) {
	for {
		p, err := c.ReadPacketInto(r)
		if err != nil {
			return
		}
		if r.Append(p.Data) != nil {
			p.Release()
			return
		}
		if !sink(p) {
			return
		}
	}
}

func placedDiscarded(c *proto.Conn, r *tailLender) {
	_, _ = c.ReadPacketInto(r) // want `result of c.ReadPacketInto is discarded without Release/Put`
}

// bufLeak: bufpool buffers carry the same exactly-once contract.
func bufLeak(n int) error {
	b := bufpool.Get(n)
	if n > 64 {
		return errTooBig // want `b may still be owned on this return path`
	}
	bufpool.Put(b)
	return nil
}

func bufClean(n int) {
	b := bufpool.GetCap(n)
	defer bufpool.Put(b)
	use(*b)
}

// loopRebind leaks one packet per iteration: the rebinding is the only
// return-free exit the leak has.
func loopRebind(c *proto.Conn) {
	for {
		p, err := c.ReadPacket() // want `p rebound while the previous pooled value may still be owned`
		if err != nil {
			return
		}
		use(p.Data)
	}
}

// loopForward is the datanode forward shape: ownership moves with the
// pointer into the sink, so each iteration starts clean.
func loopForward(c *proto.Conn, sink func(*proto.Packet) bool) {
	for {
		p, err := c.ReadPacket()
		if err != nil {
			return
		}
		if !sink(p) {
			return
		}
	}
}

// transferArg: passing the packet transfers the release duty.
func transferArg(c *proto.Conn, sink func(*proto.Packet)) {
	p, err := c.ReadPacket()
	if err != nil {
		return
	}
	sink(p)
}

// transferChan: so does sending it.
func transferChan(c *proto.Conn, ch chan *proto.Packet) {
	p, err := c.ReadPacket()
	if err != nil {
		return
	}
	ch <- p
}

// transferField: and storing it.
type holder struct{ p *proto.Packet }

func transferField(c *proto.Conn, h *holder) {
	p, err := c.ReadPacket()
	if err != nil {
		return
	}
	h.p = p
}

// annotated would be a leak to the analyzer — only p.Data escapes — but
// the registry the data lands in releases the packet out of band, which
// is exactly what //smarth:owns-packet asserts.
func annotated(c *proto.Conn, register func([]byte)) {
	p, err := c.ReadPacket() //smarth:owns-packet — the registry releases it
	if err != nil {
		return
	}
	register(p.Data)
}

// A pooled buffer may live in a struct field: a transport ring, a
// MemStore replica buffer. Storing it is a transfer — the struct's
// release method carries the Put duty — and that method must clear the
// field where it calls Put.
type ringHolder struct{ ring *[]byte }

// ringStored takes the ring straight into the field: nothing to report.
func ringStored(h *ringHolder, n int) {
	if h.ring == nil {
		h.ring = bufpool.Get(n)
	}
	use(*h.ring)
}

// ringStoredViaLocal moves a tracked local into the field.
func ringStoredViaLocal(h *ringHolder, n int) {
	bp := bufpool.Get(n)
	use(*bp)
	h.ring = bp
}

// ringReleased is the clean release: Put, then clear, in one place.
func ringReleased(h *ringHolder) {
	bufpool.Put(h.ring)
	h.ring = nil
}

// ringRegrown replaces the field's buffer: the assignment ends the old
// buffer's stay just as clearing does.
func ringRegrown(h *ringHolder, n int) {
	bp := bufpool.Get(n)
	copy(*bp, *h.ring)
	bufpool.Put(h.ring)
	h.ring = bp
}

type replica struct{ buf *[]byte }

// replicaReturnedTwice is Delete and abort both recycling one buffer.
func replicaReturnedTwice(r *replica, aborted bool) {
	bufpool.Put(r.buf)
	if aborted {
		bufpool.Put(r.buf) // want `r.buf is returned to the pool a second time`
	}
	r.buf = nil
}

// replicaLeftInField returns the buffer but keeps pointing at it, so the
// next release path returns it again.
func replicaLeftInField(r *replica) {
	bufpool.Put(r.buf)
} // want `r.buf still holds a buffer that was returned to the pool`

// localReturnedTwice: the same through a local taken from the field.
func localReturnedTwice(r *replica) {
	bp := r.buf
	r.buf = nil
	bufpool.Put(bp)
	bufpool.Put(bp) // want `bp is released a second time`
}
