// Command smarth-admin performs namespace maintenance against a running
// cluster and renders exported traces.
//
// Usage:
//
//	smarth-admin -nn 127.0.0.1:9000 -rm /old/file
//	smarth-admin -nn 127.0.0.1:9000 -mv /src,/dst
//	smarth-admin -trace t.jsonl    # render a trace exported by smarth-put -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	nnAddr := flag.String("nn", "127.0.0.1:9000", "namenode address")
	rm := flag.String("rm", "", "delete a file")
	mv := flag.String("mv", "", "rename: src,dst")
	trace := flag.String("trace", "", "render the per-pipeline timeline of a span JSONL file (no cluster needed)")
	flag.Parse()

	// -trace works offline on an exported file; no namenode connection.
	if *trace != "" {
		if err := renderTrace(*trace); err != nil {
			fatal(err)
		}
		return
	}

	net := transport.NewTCPNetwork()
	cl, err := client.New(client.Options{
		Name:         fmt.Sprintf("admin-%d", os.Getpid()),
		NamenodeAddr: *nnAddr,
		Network:      net,
	})
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	switch {
	case *rm != "":
		existed, err := cl.Delete(*rm)
		if err != nil {
			fatal(err)
		}
		if existed {
			fmt.Println("deleted", *rm)
		} else {
			fmt.Println("no such file:", *rm)
		}
	case *mv != "":
		parts := strings.SplitN(*mv, ",", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("-mv wants src,dst"))
		}
		if err := cl.Rename(parts[0], parts[1]); err != nil {
			fatal(err)
		}
		fmt.Printf("renamed %s -> %s\n", parts[0], parts[1])
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// renderTrace reads span records exported by `smarth-put -trace` and
// prints the per-pipeline timeline.
func renderTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: no span records", path)
	}
	obs.RenderTimeline(os.Stdout, spans)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smarth-admin:", err)
	os.Exit(1)
}
