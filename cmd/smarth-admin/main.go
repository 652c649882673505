// Command smarth-admin performs administrative operations against a
// running cluster: decommissioning datanodes (safe drain before removal)
// and namespace maintenance.
//
// Usage:
//
//	smarth-admin -nn 127.0.0.1:9000 -decommission dn3        # start drain
//	smarth-admin -nn 127.0.0.1:9000 -status dn3              # drain progress
//	smarth-admin -nn 127.0.0.1:9000 -decommission dn3 -cancel
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
	decomm := flag.String("decommission", "", "datanode to drain")
	cancel := flag.Bool("cancel", false, "cancel the drain instead of starting it")
	status := flag.String("status", "", "report drain status for a datanode")
	rm := flag.String("rm", "", "delete a file")
	mv := flag.String("mv", "", "rename: src,dst")
	balance := flag.Bool("balance", false, "schedule one round of replica balancing")
	threshold := flag.Float64("threshold", 0.1, "balancer utilization deviation threshold")
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
	case *decomm != "":
		if err := cl.Decommission(*decomm, *cancel); err != nil {
			fatal(err)
		}
		if *cancel {
			fmt.Println("drain cancelled for", *decomm)
		} else {
			fmt.Println("drain started for", *decomm, "— poll with -status", *decomm)
		}
	case *status != "":
		st, err := cl.DecommissionStatus(*status)
		if err != nil {
			fatal(err)
		}
		switch {
		case !st.Decommissioning:
			fmt.Printf("%s is not decommissioning\n", *status)
		case st.Done:
			fmt.Printf("%s drained: safe to shut down\n", *status)
		default:
			fmt.Printf("%s draining: %d blocks still depend on it\n", *status, st.RemainingBlocks)
		}
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
	case *balance:
		resp, err := cl.Balance(*threshold)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("scheduled %d replica moves (mean utilization %d bytes)\n", resp.Moves, resp.MeanBytes)
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
