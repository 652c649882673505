package client

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/checksum"
	"repro/internal/proto"
	"repro/internal/transport"
)

func lb3() block.LocatedBlock {
	return block.LocatedBlock{
		Block: block.Block{ID: 5, Gen: 2},
		Targets: []block.DatanodeInfo{
			{Name: "dn1", Addr: "dn1"},
			{Name: "dn2", Addr: "dn2"},
			{Name: "dn3", Addr: "dn3"},
		},
	}
}

// Suspect marking lives in the engine with the rest of the recovery
// decisions; see internal/writesched's engine tests. What stays here is
// the pipelineError carrier the adapter translates into the engine's
// PipelineFailure.
func TestPipelineErrorBadIndexExtraction(t *testing.T) {
	inner := &pipelineError{lb: lb3(), badIndex: 1, cause: errors.New("checksum")}
	wrapped := fmt.Errorf("stream: %w", inner)
	var pe *pipelineError
	if !errors.As(wrapped, &pe) || pe.badIndex != 1 {
		t.Fatalf("errors.As lost the bad index: %v", wrapped)
	}
	var none *pipelineError
	if errors.As(errors.New("connection reset"), &none) {
		t.Fatal("errors.As matched a plain error")
	}
}

func TestPipelineErrorMessage(t *testing.T) {
	err := &pipelineError{lb: lb3(), badIndex: 2, cause: errors.New("boom")}
	msg := err.Error()
	for _, want := range []string{"dn3", "boom", "blk_5"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	if !errors.Is(err, err.cause) {
		t.Fatal("Unwrap broken")
	}
}

func TestWriteOptionsDefaults(t *testing.T) {
	var o WriteOptions
	o.applyDefaults()
	if o.Replication != 3 || o.BlockSize != proto.DefaultBlockSize || o.PacketSize != proto.DefaultPacketSize {
		t.Fatalf("defaults = %+v", o)
	}
	o2 := WriteOptions{Replication: 2, BlockSize: 1 << 20, PacketSize: 8 << 10}
	o2.applyDefaults()
	if o2.Replication != 2 || o2.BlockSize != 1<<20 || o2.PacketSize != 8<<10 {
		t.Fatalf("explicit values clobbered: %+v", o2)
	}
	// Interior packets carry whole checksum chunks: odd sizes round up.
	for in, want := range map[int]int{1: 512, 511: 512, 513: 1024, 64<<10 - 1: 64 << 10} {
		o := WriteOptions{PacketSize: in}
		o.applyDefaults()
		if o.PacketSize != want {
			t.Fatalf("PacketSize %d became %d, want %d", in, o.PacketSize, want)
		}
	}
}

// TestUnsetTimeoutsTakeDefaults: a zero Timeouts field does not turn a
// bound off, it takes its DefaultTimeouts value; a set field is kept.
func TestUnsetTimeoutsTakeDefaults(t *testing.T) {
	cl, err := New(Options{Name: "c", NamenodeAddr: "nn", Network: transport.NewMemNetwork(nil),
		HeartbeatInterval: time.Hour, Timeouts: Timeouts{RPC: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got, want := cl.dialer.Progress, DefaultTimeouts().Progress; got != want {
		t.Fatalf("dialer Progress = %v, want the default %v", got, want)
	}
	if got := cl.opts.Timeouts.RPC; got != time.Second {
		t.Fatalf("RPC = %v, want the 1s it was given", got)
	}
}

// TestStagedBlockSumsOnce: however raggedly a block is staged, its
// checksum buffer ends up holding the one-shot checksums of its bytes —
// the slices streamBlock hands every packet of every attempt.
func TestStagedBlockSumsOnce(t *testing.T) {
	const cs = checksum.DefaultChunkSize
	rng := rand.New(rand.NewSource(13))
	for _, bs := range []int{1, cs - 1, cs, 10*cs + 7, 256 << 10} {
		src := make([]byte, bs+100) // more than one block's worth on offer
		rng.Read(src)
		var b stagedBlock
		for staged := 0; staged < bs; {
			offer := src[staged:min(staged+1+rng.Intn(3*cs), len(src))]
			staged += b.stage(offer, bs)
		}
		b.seal()
		if !bytes.Equal(*b.data, src[:bs]) {
			t.Fatalf("block of %d: staged bytes differ from the source", bs)
		}
		if want := checksum.AppendEncoded(nil, src[:bs], cs); !bytes.Equal(*b.sums, want) {
			t.Fatalf("block of %d: %d checksum bytes staged, want the %d one-shot ones", bs, len(*b.sums), len(want))
		}
		b.recycle()
	}
}

// BenchmarkStageAndSum is the client's per-byte production cost (the
// paper's T_c): copy a 1 MB block into its staging buffer in 64 KB
// writes, summing each as it lands, then seal and recycle it.
func BenchmarkStageAndSum(b *testing.B) {
	const bs = 1 << 20
	src := make([]byte, 64<<10)
	rand.New(rand.NewSource(17)).Read(src)
	b.SetBytes(bs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var blk stagedBlock
		for staged := 0; staged < bs; {
			staged += blk.stage(src, bs)
		}
		blk.seal()
		blk.recycle()
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("client.New accepted empty options")
	}
}
