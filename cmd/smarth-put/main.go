// Command smarth-put uploads a local file into a running cluster (see
// smarth-cluster) with either the baseline HDFS protocol or SMARTH, then
// optionally reads it back to verify integrity — the equivalent of the
// paper's `hdfs put` measurements.
//
// Usage:
//
//	smarth-put -nn 127.0.0.1:9000 -src ./big.bin -dst /demo -mode smarth
//	smarth-put -nn 127.0.0.1:9000 -dst /demo -verify   # read back only
//	smarth-put -nn 127.0.0.1:9000 -src ./big.bin -dst /demo -trace t.jsonl
//
// With -trace the client records a span per write, block, pipeline and
// recovery (FNFA and setup acks as span events) and exports the upload's
// spans as JSONL; render them with `smarth-admin -trace t.jsonl`.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	nnAddr := flag.String("nn", "127.0.0.1:9000", "namenode address")
	src := flag.String("src", "", "local file to upload (empty with -verify = only read back)")
	dst := flag.String("dst", "/file", "destination path in the cluster")
	mode := flag.String("mode", "smarth", "write protocol: hdfs | smarth")
	replication := flag.Int("replication", 3, "replication factor")
	blockSize := flag.Int64("block", 64<<20, "block size in bytes")
	verify := flag.Bool("verify", false, "read the file back and check its digest")
	timeout := flag.Duration("timeout", 0,
		"stall-detection bound: data-path progress and per-RPC timeouts; 0 = the client defaults (30s progress, 15s RPC)")
	traceOut := flag.String("trace", "",
		"export the upload's span trace as JSONL to this file (render with smarth-admin -trace)")
	flag.Parse()
	if *traceOut != "" && *src == "" {
		fatal(fmt.Errorf("-trace records an upload: it needs -src"))
	}

	var tracing *obs.Obs // nil = observability off
	if *traceOut != "" {
		tracing = obs.New(nil)
	}
	net := transport.NewTCPNetwork()
	cl, err := client.New(client.Options{
		Name:         fmt.Sprintf("put-%d", os.Getpid()),
		NamenodeAddr: *nnAddr,
		Network:      net,
		Timeouts:     client.Timeouts{Progress: *timeout, RPC: *timeout},
		Obs:          tracing,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	var uploadDigest [32]byte
	if *src != "" {
		f, err := os.Open(*src)
		if err != nil {
			fatal(err)
		}
		defer f.Close()

		opts := client.WriteOptions{
			Replication: *replication,
			BlockSize:   *blockSize,
			Overwrite:   true,
		}
		var w io.WriteCloser
		switch *mode {
		case "smarth":
			w, err = cl.CreateSmarth(*dst, opts)
		case "hdfs":
			w, err = cl.CreateHDFS(*dst, opts)
		default:
			fatal(fmt.Errorf("unknown mode %q", *mode))
		}
		if err != nil {
			fatal(err)
		}

		h := sha256.New()
		start := time.Now()
		n, err := io.Copy(io.MultiWriter(w, h), f)
		if err != nil {
			fatal(err)
		}
		if err := w.Close(); err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		copy(uploadDigest[:], h.Sum(nil))
		fmt.Printf("uploaded %d bytes (%s) in %.2fs — %.1f MB/s [%s]\n",
			n, *dst, elapsed.Seconds(), float64(n)/1e6/elapsed.Seconds(), *mode)
		if tracing != nil {
			if err := exportTrace(tracing.Tracer, *traceOut); err != nil {
				fatal(err)
			}
		}
	}

	if *verify {
		start := time.Now()
		r, err := cl.Open(*dst)
		if err != nil {
			fatal(err)
		}
		h := sha256.New()
		n, err := io.Copy(h, r)
		if err != nil {
			fatal(err)
		}
		r.Close()
		fmt.Printf("read back %d bytes in %.2fs — sha256 %x\n", n, time.Since(start).Seconds(), h.Sum(nil))
		if *src != "" {
			var got [32]byte
			copy(got[:], h.Sum(nil))
			if got != uploadDigest {
				fatal(fmt.Errorf("digest mismatch: upload %x, read %x", uploadDigest, got))
			}
			fmt.Println("digest matches upload: OK")
		}
	}
}

// exportTrace writes every span recorded so far as JSONL.
func exportTrace(t *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smarth-put:", err)
	os.Exit(1)
}
