// Command smarth-fsck reports namespace and replication health of a
// running cluster: every file, its length, block count, and the minimum
// live replica count across its blocks — the reproduction's equivalent of
// `hdfs fsck /`.
//
// Usage:
//
//	smarth-fsck -nn 127.0.0.1:9000 [-prefix /logs]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/transport"
)

func main() {
	nnAddr := flag.String("nn", "127.0.0.1:9000", "namenode address")
	prefix := flag.String("prefix", "", "only report files under this path prefix")
	flag.Parse()

	net := transport.NewTCPNetwork()
	cl, err := client.New(client.Options{
		Name:         fmt.Sprintf("fsck-%d", os.Getpid()),
		NamenodeAddr: *nnAddr,
		Network:      net,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smarth-fsck:", err)
		os.Exit(1)
	}
	defer cl.Close()

	files, err := cl.List(*prefix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smarth-fsck:", err)
		os.Exit(1)
	}

	tb := metrics.NewTable("", "path", "bytes", "blocks", "repl", "min live", "state")
	healthy := true
	for _, f := range files {
		state := "HEALTHY"
		switch {
		case !f.Complete:
			state = "OPEN"
		case f.NumBlocks > 0 && f.MinLiveReplicas == 0:
			state = "MISSING"
			healthy = false
		case f.NumBlocks > 0 && f.MinLiveReplicas < f.Replication:
			state = "UNDER-REPLICATED"
			healthy = false
		}
		tb.Add(f.Path,
			fmt.Sprintf("%d", f.Len),
			fmt.Sprintf("%d", f.NumBlocks),
			fmt.Sprintf("%d", f.Replication),
			fmt.Sprintf("%d", f.MinLiveReplicas),
			state)
	}
	fmt.Print(tb.String())
	fmt.Printf("%d files", len(files))
	if healthy {
		fmt.Println(" — filesystem is HEALTHY")
	} else {
		fmt.Println(" — filesystem has problems")
		os.Exit(1)
	}
}
