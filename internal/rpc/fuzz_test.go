package rpc

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/bufpool"
	"repro/internal/wire"
)

// countingReader records how many bytes readFrame consumed.
type countingReader struct {
	r *bytes.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// requestFrame encodes a request the way Client.send does.
func requestFrame(tb testing.TB, seq uint64, method string, body []byte) []byte {
	frame := append(wire.AppendString(appendPrefix(nil, seq), method), body...)
	if err := finishFrame(frame); err != nil {
		tb.Fatal(err)
	}
	return frame
}

// responseFrame encodes a response the way respond does.
func responseFrame(tb testing.TB, seq uint64, body []byte, remote *RemoteError) []byte {
	frame := append(append(appendPrefix(nil, seq), statusOK), body...)
	if remote != nil {
		frame = wire.AppendString(append(frame[:prefixSize], statusErr), remote.Msg)
	}
	if err := finishFrame(frame); err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzReadFrame feeds arbitrary bytes to the RPC frame decoder, which the
// namenode runs on bytes from any client or datanode socket (request
// envelope) and every caller runs on bytes from the namenode (response
// envelope). It must return an error or an envelope whose re-encoding is
// the input frame byte for byte, never panic, reject a length prefix
// above MaxMessage on the prefix alone — nothing read past it, so no
// body-sized buffer was taken from bufpool to read into — reject a frame
// that does not start with the codec version, and hand back a remote
// error that owns its memory: the pooled frame is recycled and
// overwritten before the comparison.
func FuzzReadFrame(f *testing.F) {
	frame := func(n uint32, body string) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), body...)
	}
	req := requestFrame(f, 7, "ClientProtocol.addBlock", wire.AppendStrings(wire.AppendString(nil, "/f"), []string{"dn1"}))
	resp := responseFrame(f, 7, wire.AppendBlock(nil, block.Block{ID: 42, Gen: 1}), nil)
	remote := responseFrame(f, 8, nil, &RemoteError{Msg: "namenode: file not found: /f"})
	for _, seed := range [][]byte{
		req, resp, remote,
		requestFrame(f, 0, "", nil), responseFrame(f, 0, nil, nil), responseFrame(f, 0, nil, &RemoteError{}),
		req[:len(req)/2], req[:len(req)-1], resp[:5], resp[:3], {},
		frame(MaxMessage+1, ""), frame(^uint32(0), "\x01"),
		frame(9, `{"seq":1}{"seq":2}`),               // a JSON-era peer
		frame(uint32(len(req)-4-1), string(req[4:])), // length shorter than the bytes behind it
		frame(0, ""), frame(1, "\x01"), frame(9, "\x02\x00\x00\x00\x00\x00\x00\x00\x07"), // no version, no seq, wrong version
		frame(10, "\x01\x00\x00\x00\x00\x00\x00\x00\x07\x02"),            // unknown status
		frame(13, "\x01\x00\x00\x00\x00\x00\x00\x00\x07\x01\x00\x05no"),  // error string longer than the frame
		frame(14, "\x01\x00\x00\x00\x00\x00\x00\x00\x07\x01\x00\x01nop"), // bytes after the error string
		frame(11, "\x01\x00\x00\x00\x00\x00\x00\x00\x07\xff\xff"),        // method in the long form, no length
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, raw []byte, asResponse bool) {
		in := &countingReader{r: bytes.NewReader(raw)}
		fr, err := readFrame(in)
		if len(raw) >= 4 && binary.BigEndian.Uint32(raw) > MaxMessage {
			if err == nil || !strings.Contains(err.Error(), "exceeds max") || in.n != 4 {
				t.Fatalf("oversized length prefix %x: err=%v after reading %d bytes, want a size rejection after 4", raw[:4], err, in.n)
			}
		}
		if err != nil {
			return
		}
		input := raw[:in.n]
		var again []byte
		var remote *RemoteError
		var msg string
		if asResponse {
			var seq uint64
			var body []byte
			if seq, body, remote, err = parseResponse(*fr); err == nil {
				again = responseFrame(t, seq, body, remote)
			}
			if remote != nil {
				msg = strings.Clone(remote.Msg)
			}
		} else if seq, method, body, perr := parseRequest(*fr); perr == nil {
			again = requestFrame(t, seq, string(method), body)
		} else {
			err = perr
		}
		if len(*fr) > 0 && (*fr)[0] != version && (err == nil || !strings.Contains(err.Error(), "codec version")) {
			t.Fatalf("frame starting with 0x%02x: err=%v, want a version rejection", (*fr)[0], err)
		}
		bufpool.Put(fr)
		// A remote error still aliasing the (returned) frame would change
		// once the pool hands that buffer out again.
		var held [4]*[]byte
		for i := range held {
			held[i] = bufpool.Get(len(raw))
			for j := range *held[i] {
				(*held[i])[j] = 0xA5
			}
		}
		for _, bp := range held {
			bufpool.Put(bp)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(again, input) {
			t.Fatalf("frame\n%x\nparsed, but its envelope encodes to\n%x", input, again)
		}
		if remote != nil && remote.Msg != msg {
			t.Fatalf("remote error %q changed to %q when its frame was recycled", msg, remote.Msg)
		}
	})
}
