// Package workload generates deterministic test and benchmark inputs:
// reproducible pseudo-random file contents.
package workload

import (
	"io"
	"math/rand"
)

// Data returns n deterministic pseudo-random bytes for a seed. Equal
// seeds and sizes always produce equal bytes, so writers and readers
// can regenerate the payload independently. The bytes are exactly what
// NewReader(seed, n) streams.
func Data(seed int64, n int) []byte {
	out := make([]byte, n)
	if _, err := io.ReadFull(NewReader(seed, int64(n)), out); err != nil {
		panic(err) // the reader yields exactly n bytes by construction
	}
	return out
}

// Reader streams the same bytes Data(seed, n) would return, without
// materializing them — for workloads larger than memory.
type Reader struct {
	rng    *rand.Rand
	remain int64
	arr    [8]byte // scratch for one rng draw; buf windows into it
	buf    []byte
}

// NewReader returns a reader over n deterministic bytes.
func NewReader(seed int64, n int64) *Reader {
	return &Reader{rng: rand.New(rand.NewSource(seed)), remain: n}
}

func (r *Reader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	// Bytes are drawn through a fixed 8-byte buffer so the stream is
	// identical no matter how reads are chunked.
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			v := r.rng.Uint64()
			for i := 0; i < 8; i++ {
				r.arr[i] = byte(v >> (8 * i))
			}
			r.buf = r.arr[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	r.remain -= int64(n)
	return n, nil
}
