package checksum

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNumChunks(t *testing.T) {
	cases := []struct {
		n, cs, want int
	}{
		{0, 512, 0},
		{1, 512, 1},
		{511, 512, 1},
		{512, 512, 1},
		{513, 512, 2},
		{1024, 512, 2},
		{1025, 512, 3},
	}
	for _, c := range cases {
		if got := NumChunks(c.n, c.cs); got != c.want {
			t.Errorf("NumChunks(%d,%d) = %d, want %d", c.n, c.cs, got, c.want)
		}
	}
}

func TestNumChunksPanicsOnBadChunkSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for chunk size 0")
		}
	}()
	NumChunks(10, 0)
}

func TestSumVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 65536, 65537} {
		data := make([]byte, n)
		rng.Read(data)
		sums := Sum(data, DefaultChunkSize)
		if len(sums) != NumChunks(n, DefaultChunkSize) {
			t.Fatalf("n=%d: %d sums, want %d", n, len(sums), NumChunks(n, DefaultChunkSize))
		}
		if err := Verify(data, sums, DefaultChunkSize); err != nil {
			t.Fatalf("n=%d: verify failed: %v", n, err)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i)
	}
	sums := Sum(data, 512)
	data[1300] ^= 0xff // corrupt chunk 2
	err := Verify(data, sums, 512)
	var mm *ErrMismatch
	if !errors.As(err, &mm) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	if mm.Chunk != 2 {
		t.Fatalf("mismatch chunk = %d, want 2", mm.Chunk)
	}
	if mm.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestVerifyCountMismatch(t *testing.T) {
	data := make([]byte, 1024)
	sums := Sum(data, 512)
	if err := Verify(data, sums[:1], 512); err == nil {
		t.Fatal("verify accepted short checksum list")
	}
	if err := Verify(data, append(sums, 0), 512); err == nil {
		t.Fatal("verify accepted long checksum list")
	}
}

func TestEncodeDecode(t *testing.T) {
	sums := []uint32{0, 1, 0xdeadbeef, 0xffffffff}
	raw := Encode(nil, sums)
	if len(raw) != len(sums)*BytesPerChecksum {
		t.Fatalf("encoded %d bytes, want %d", len(raw), len(sums)*BytesPerChecksum)
	}
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if back[i] != sums[i] {
			t.Fatalf("round trip [%d] = %08x, want %08x", i, back[i], sums[i])
		}
	}
	if _, err := Decode(raw[:5]); err == nil {
		t.Fatal("Decode accepted truncated input")
	}
}

func TestChunkedMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 10_000)
	rng.Read(data)
	c := NewChunked(512)
	// Feed in ragged pieces.
	for off := 0; off < len(data); {
		sz := rng.Intn(700) + 1
		if off+sz > len(data) {
			sz = len(data) - off
		}
		n, err := c.Write(data[off : off+sz])
		if err != nil || n != sz {
			t.Fatalf("Write = (%d,%v), want (%d,nil)", n, err, sz)
		}
		off += sz
	}
	if c.Total() != int64(len(data)) {
		t.Fatalf("Total = %d, want %d", c.Total(), len(data))
	}
	got := c.Sums()
	want := Sum(data, 512)
	if len(got) != len(want) {
		t.Fatalf("%d sums, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %08x, want %08x", i, got[i], want[i])
		}
	}
	// Reusable after Sums.
	if c.Total() != 0 {
		t.Fatal("Total not reset after Sums")
	}
	c.Write([]byte{1, 2, 3})
	if got := c.Sums(); len(got) != 1 || got[0] != Sum([]byte{1, 2, 3}, 512)[0] {
		t.Fatal("reuse after Sums produced wrong checksum")
	}
}

func TestNewChunkedDefault(t *testing.T) {
	c := NewChunked(0)
	data := bytes.Repeat([]byte{0xab}, DefaultChunkSize+1)
	c.Write(data)
	if got := c.Sums(); len(got) != 2 {
		t.Fatalf("default chunk size produced %d sums, want 2", len(got))
	}
}

// Property: Sum/Verify round-trips for arbitrary data and chunk sizes, and
// flipping any single byte breaks verification.
func TestQuickRoundTripAndCorruption(t *testing.T) {
	f := func(data []byte, csRaw uint8, flip uint16) bool {
		cs := int(csRaw)%1024 + 1
		sums := Sum(data, cs)
		if Verify(data, sums, cs) != nil {
			return false
		}
		if len(data) == 0 {
			return true
		}
		i := int(flip) % len(data)
		data[i] ^= 0x01
		return Verify(data, sums, cs) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sameSums reports whether two checksum slices are equal.
func sameSums(got, want []uint32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Property: incremental Chunked equals one-shot Sum regardless of how the
// input is split. The chunk size is drawn small so that quick's short
// inputs span many chunks and the cuts fall before, on and after chunk
// boundaries; Grow, wherever it is called, changes nothing but capacity.
func TestQuickChunkedEquivalence(t *testing.T) {
	f := func(data []byte, cuts []uint16, csRaw uint8, growAt uint8) bool {
		cs := int(csRaw)%16 + 1
		c := NewChunked(cs)
		rest := data
		for i, cut := range cuts {
			if len(rest) == 0 {
				break
			}
			if i == int(growAt)%4 {
				c.Grow(int64(len(rest)))
			}
			n := int(cut) % (len(rest) + 1)
			c.Write(rest[:n])
			rest = rest[n:]
		}
		c.Write(rest)
		return c.Total() == int64(len(data)) && sameSums(c.Sums(), Sum(data, cs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	// Every two-way and a ragged three-way split of a stream that ends
	// mid-chunk: whole chunks are summed in place, so each boundary case
	// (tail completes a chunk exactly, overshoots it, falls short) runs.
	data := make([]byte, 3*DefaultChunkSize+5)
	rand.New(rand.NewSource(11)).Read(data)
	want := Sum(data, DefaultChunkSize)
	for cut := 0; cut <= len(data); cut++ {
		c := NewChunked(DefaultChunkSize)
		c.Write(data[:cut])
		c.Write(data[cut:])
		if !sameSums(c.Sums(), want) {
			t.Fatalf("split at %d: sums differ from one-shot Sum", cut)
		}
		mid := cut + (len(data)-cut)/3
		c.Write(data[:cut])
		c.Write(data[cut:mid])
		c.Write(data[mid:])
		if !sameSums(c.Sums(), want) {
			t.Fatalf("split at %d and %d: sums differ from one-shot Sum", cut, mid)
		}
	}
}

// TestChunkedAllocs bounds the store path's checksummer: one block
// streamed in packets after a Grow costs the Chunked, its sums and —
// only when packets are not chunk-aligned — one sub-chunk tail buffer,
// not a growth chain, and never a copy of the payload.
func TestChunkedAllocs(t *testing.T) {
	const block = 1 << 20
	for _, tc := range []struct {
		name   string
		packet int
		max    float64
	}{
		{"aligned", 64 << 10, 2},
		{"ragged", 64<<10 - 3, 3},
	} {
		data := make([]byte, tc.packet)
		var sums []uint32
		got := testing.AllocsPerRun(20, func() {
			c := NewChunked(DefaultChunkSize)
			c.Grow(block)
			for off := 0; off < block; off += len(data) {
				c.Write(data[:min(len(data), block-off)])
			}
			sums = c.Sums()
		})
		if len(sums) != block/DefaultChunkSize {
			t.Fatalf("%s: %d sums, want %d", tc.name, len(sums), block/DefaultChunkSize)
		}
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per block, want <= %.0f", tc.name, got, tc.max)
		}
	}
}
