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

// Property: AppendEncoded is Encode of Sum, for any data, chunk size and
// prefix already in dst, and the result verifies with VerifyEncoded.
func TestQuickAppendEncoded(t *testing.T) {
	f := func(data, prefix []byte, csRaw uint8) bool {
		cs := int(csRaw)%1024 + 1
		got := AppendEncoded(append([]byte(nil), prefix...), data, cs)
		want := Encode(append([]byte(nil), prefix...), Sum(data, cs))
		return bytes.Equal(got, want) && VerifyEncoded(data, got[len(prefix):], cs) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendEncodedAllocs: summing into a buffer with room allocates
// nothing — the client sums every staged block and the stores every
// Write through it.
func TestAppendEncodedAllocs(t *testing.T) {
	data := make([]byte, 64<<10)
	dst := make([]byte, 0, NumChunks(len(data), DefaultChunkSize)*BytesPerChecksum)
	if got := testing.AllocsPerRun(20, func() { dst = AppendEncoded(dst[:0], data, DefaultChunkSize) }); got != 0 {
		t.Errorf("%.0f allocs per 64 KB, want 0", got)
	}
}
