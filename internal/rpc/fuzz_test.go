package rpc

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/bufpool"
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

// FuzzReadFrame feeds arbitrary bytes to the RPC frame decoder, which the
// namenode runs on bytes from any client or datanode socket (request
// envelope) and every caller runs on bytes from the namenode (response
// envelope). It must return an error or an envelope that survives an
// encode/decode round trip unchanged, never panic, reject a length prefix
// above MaxMessage on the prefix alone — nothing read past it, so no
// body-sized buffer was taken from bufpool to read into — and hand back
// an envelope that owns its memory: the pooled decode buffer is recycled
// and overwritten before the comparison.
func FuzzReadFrame(f *testing.F) {
	encode := func(tb testing.TB, v any) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, v); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	frame := func(n uint32, body string) []byte {
		return append(binary.BigEndian.AppendUint32(nil, n), body...)
	}
	req := encode(f, request{Seq: 7, Method: "ClientProtocol.addBlock", Body: []byte(`{"Path":"/f","Exclude":["dn1"]}`)})
	resp := encode(f, response{Seq: 7, Body: []byte(`{"Located":{"Block":{"ID":42}}}`)})
	remote := encode(f, response{Seq: 8, Err: "namenode: file not found: /f"})
	for _, seed := range [][]byte{
		req, resp, remote,
		encode(f, request{}), encode(f, response{}),
		req[:len(req)/2], req[:len(req)-1], resp[:5], resp[:3], {},
		frame(MaxMessage+1, ""), frame(^uint32(0), `{"seq":1}`),
		frame(9, `{"seq":1}{"seq":2}`), // length shorter than the bytes behind it
		frame(4, "\x00\xff{]"), frame(7, `{"seq":`), frame(0, ""),
		frame(19, `{"seq":1,"body":{]}`), // valid envelope syntax around a broken body
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, raw []byte, asResponse bool) {
		var v, again any = &request{}, &request{}
		if asResponse {
			v, again = &response{}, &response{}
		}
		in := &countingReader{r: bytes.NewReader(raw)}
		err := readFrame(in, v)
		if len(raw) >= 4 && binary.BigEndian.Uint32(raw) > MaxMessage {
			if err == nil || !strings.Contains(err.Error(), "exceeds max") || in.n != 4 {
				t.Fatalf("oversized length prefix %x: err=%v after reading %d bytes, want a size rejection after 4", raw[:4], err, in.n)
			}
		}
		// An envelope still aliasing the (returned) decode buffer would
		// change once the pool hands that buffer out again.
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
		first := encode(t, v)
		if err := readFrame(bytes.NewReader(first), again); err != nil {
			t.Fatalf("decoded %+v from\n%x\nbut its encoding\n%x\ndoes not decode: %v", v, raw, first, err)
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("decoded %+v from\n%x\nencodes to\n%x\nwhich decodes and encodes to\n%x", v, raw, first, second)
		}
	})
}
