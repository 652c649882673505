// Command smarth-cluster runs a real cluster — one namenode and N
// datanodes — over TCP on localhost, so smarth-put in another terminal
// can upload files to it with either protocol.
//
// Usage:
//
//	smarth-cluster -nn 127.0.0.1:9000 -datanodes 9 -dir /tmp/smarth
//
// Datanodes 1..ceil(N/2) sit in /rack-a, the rest in /rack-b. With -dir
// set, blocks persist on disk; otherwise they live in memory.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/namenode"
	"repro/internal/storage"
)

func main() {
	nnAddr := flag.String("nn", "127.0.0.1:9000", "namenode listen address")
	numDN := flag.Int("datanodes", 3, "number of datanodes")
	dir := flag.String("dir", "", "base directory for on-disk block storage (empty = in-memory)")
	imagePath := flag.String("image", "", "fsimage checkpoint: loaded on boot if present, saved on shutdown")
	flag.Parse()

	// The one cluster bootstrap (cluster.StartTCP), at the paper's
	// heartbeat cadence instead of the test-speed defaults.
	cfg := cluster.Config{
		NumDatanodes:      *numDN,
		NamenodeListen:    *nnAddr,
		HeartbeatInterval: core.HeartbeatInterval,
		Expiry:            namenode.DefaultExpiry,
		RackFor: func(i int) string {
			if i >= (*numDN+1)/2 {
				return "/rack-b"
			}
			return "/rack-a"
		},
		Logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	if *dir != "" {
		cfg.NewStore = func(name string) (storage.Store, error) {
			return storage.NewDiskStore(filepath.Join(*dir, name))
		}
	}
	if *imagePath != "" {
		if f, err := os.Open(*imagePath); err == nil {
			defer f.Close()
			cfg.Image = f
			fmt.Println("restoring namespace from", *imagePath)
		}
	}
	c, err := cluster.StartTCP(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smarth-cluster:", err)
		os.Exit(1)
	}
	fmt.Println("namenode listening on", c.NNAddr)
	for _, dn := range c.DNs {
		info := dn.Info()
		fmt.Printf("datanode %s (%s) on %s\n", info.Name, info.Rack, info.Addr)
	}

	fmt.Printf("\ncluster up: %d datanodes. Upload with:\n", *numDN)
	fmt.Printf("  smarth-put -nn %s -mode smarth -src <local file> -dst /demo\n\n", c.NNAddr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if *imagePath != "" {
		f, err := os.Create(*imagePath)
		if err == nil {
			err = c.NN.SaveImage(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "save image:", err)
		} else {
			fmt.Println("namespace checkpointed to", *imagePath)
		}
	}
	c.Stop()
}
