package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// traceRegion is how long the traced run drives each workload: long
// enough for about five files, short enough to keep the spans in memory.
const traceRegion = 2 * time.Second

// ledgerRow attributes part of a workload's CPU cost per GB of user
// data to one layer: how often the layer was called (counted by the
// program's obs registry in the traced run) times what one call costs
// when the layer runs alone.
type ledgerRow struct {
	Layer      string
	CallsPerGB float64
	NsPerCall  float64
	SPerGB     float64
}

// buildLedger prices every row and appends the remainder of total as
// "unattributed", so the rows always sum to total. The remainder is
// what no probe covers — scheduling, channels, GC, the loops between
// the layers — less whatever two probes count twice; it is shown as
// measured, negative included.
func buildLedger(total float64, rows []ledgerRow) []ledgerRow {
	out := make([]ledgerRow, 0, len(rows)+1)
	rest := total
	for _, r := range rows {
		r.SPerGB = r.CallsPerGB * r.NsPerCall / 1e9
		rest -= r.SPerGB
		out = append(out, r)
	}
	return append(out, ledgerRow{Layer: "unattributed", SPerGB: rest})
}

// ledgerRows lists the layers a data workload's bytes pass through.
// perGB returns a counter's increase over the traced region per GB of
// user data; layer returns a probed per-layer metric.
func ledgerRows(w *workload, perGB, layer func(string) float64) []ledgerRow {
	wire, store := "transport.mem_copy_cpu_ns_per_MB", "storage.mem_block_ns_per_MB"
	if w.name != "mem_write_r3" {
		wire, store = "transport.tcp_copy_cpu_ns_per_MB", "storage.disk_block_ns_per_MB"
	}
	rpcNs := layer("rpc.echo_rt_ns") + layer("nnapi.addblock_codec_ns") + layer("namenode.addblock_direct_ns")
	rpcs := ledgerRow{"namenode rpc (echo + addBlock codec + handler)", perGB("namenode.nn_rpcs"), rpcNs, 0}
	if w.rate == "read_MBps" {
		packets, mb := perGB("datanode.read_packets"), perGB("datanode.read_bytes")/1e6
		return []ledgerRow{
			{"checksum.verify, client", packets, layer("checksum.verify_ns_per_64KB"), 0},
			{"proto packet encode + decode", packets, layer("proto.packet_rt_ns"), 0},
			{"bufpool get + put", packets, layer("bufpool.getput_ns"), 0},
			{"transport copy, per MB served", mb, layer(wire), 0},
			{"storage read, per MB served", mb, layer("storage.disk_read_ns_per_MB"), 0},
			rpcs,
		}
	}
	in, fwd := perGB("datanode.packets_in"), perGB("datanode.packets_forwarded")
	return []ledgerRow{
		{"checksum.sum, client", in - fwd, layer("checksum.sum_ns_per_64KB"), 0},
		{"checksum.verify, every datanode", in, layer("checksum.verify_ns_per_64KB"), 0},
		{"proto packet encode + decode, per hop", in, layer("proto.packet_rt_ns"), 0},
		{"proto ack encode + decode, per hop", perGB("datanode.acks_sent"), layer("proto.ack_rt_ns"), 0},
		{"bufpool get + put, per hop", in, layer("bufpool.getput_ns"), 0},
		{"transport copy, per MB over a hop", in * packetBytes / 1e6, layer(wire), 0},
		{"storage block write, per MB stored", perGB("datanode.bytes_stored") / 1e6, layer(store), 0},
		rpcs,
		{"writesched block cycle", perGB("namenode.blocks_allocated"), layer("writesched.block_cycle_ns"), 0},
	}
}

// countedNames are the obs counters the ledger and the per-file counts
// read, by component kind.
var countedNames = map[string][]string{
	"client":   {"frames_out", "bytes_out", "rpc_batches", "recoveries", "rpc_retries", "blocks_read", "read_failovers"},
	"datanode": {"packets_in", "packets_forwarded", "acks_sent", "bytes_stored", "blocks_committed", "reads", "read_packets", "read_bytes"},
	"namenode": {"nn_rpcs", "nn_batches", "blocks_allocated", "block_recoveries"},
}

// counters sums the counted obs counters over components of one kind
// ("datanode.packets_in" is the total over all datanodes).
func (d *dataBench) counters() map[string]float64 {
	out := make(map[string]float64)
	for _, c := range d.reg.Components() {
		kind, _, _ := strings.Cut(c.Name(), "/")
		for _, name := range countedNames[kind] {
			out[kind+"."+name] += float64(c.Counter(name).Load())
		}
	}
	return out
}

// traceWorkload is the traced run of one workload: a short untraced
// region, then the same region on a fresh instance with spans recorded
// and the obs registry attached. It prints the span table, the counts
// and (for the three unshaped data workloads) the CPU ledger, and
// returns the workload's own per-layer values.
func traceWorkload(stdout io.Writer, w *workload, o runOpts, layers map[string]float64) (tr *tracer, vals map[string]float64, ops, failed int, err error) {
	region := min(traceRegion, time.Duration(o.seconds*float64(time.Second)))
	run := func(o runOpts) (out sliceOut, delta map[string]float64, err error) {
		inst, _, err := setUp(w, o, 1)
		if err != nil {
			return out, nil, err
		}
		defer inst.close()
		c, counted := inst.(interface{ counters() map[string]float64 })
		var before map[string]float64
		if counted && o.tr != nil {
			before = c.counters()
		}
		out = inst.runSlice(time.Now().Add(region))
		if before != nil {
			delta = c.counters()
			for name, v := range before {
				delta[name] -= v
			}
		}
		if err := inst.check(); err != nil {
			fmt.Fprintf(stdout, "# %s: check failed: %v\n", w.name, err)
			out.failed++
		}
		return out, delta, nil
	}
	plain, _, err := run(o)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	tr = newTracer()
	o.tr = tr
	traced, delta, err := run(o)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	ops = len(plain.ops) + len(traced.ops) + plain.failed + traced.failed
	failed = plain.failed + traced.failed
	if len(plain.ops) == 0 || len(traced.ops) == 0 {
		return tr, nil, ops, failed, fmt.Errorf("%s: no operation completed in the traced run", w.name)
	}

	fmt.Fprintf(stdout, "\n== %s, traced: %d ops in %v, %d failed\n", w.name, len(traced.ops), region, traced.failed)
	// The table covers the timed operations; client.*_ms also take in
	// the client calls of set-up and verification, which are spanned
	// but belong to no operation (tcp_read_r3 only writes in set-up).
	vals = make(map[string]float64)
	for name, v := range selfTimes(tr.spans) {
		if strings.HasPrefix(name, "client.") {
			vals[name+"_ms"] = median(v) / 1e6
		}
	}
	var inOps []spanRec
	for _, s := range tr.spans {
		if root := tr.spans[s.Trace-1]; !strings.HasPrefix(root.Name, "client.") {
			inOps = append(inOps, s)
		}
	}
	self := selfTimes(inOps)
	opWall := 0.0 // wall time of the operations' root spans: the shares below sum to 100%
	for _, s := range inOps {
		if s.Parent == 0 {
			opWall += float64(s.End - s.Start)
		}
	}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\tmedian self ms\ttotal self ms\tshare of op wall\t")
	for _, name := range names {
		total := 0.0
		for _, v := range self[name] {
			total += v
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.1f\t%.1f%%\t\n", name, len(self[name]), median(self[name])/1e6, total/1e6, 100*total/opWall)
	}
	tw.Flush()

	plainMs, tracedMs := medianMs(plain.ops), medianMs(traced.ops)
	vals["trace.overhead_pct"] = (tracedMs - plainMs) / plainMs * 100
	fmt.Fprintf(stdout, "   tracing overhead: median op %.3f ms traced, %.3f ms untraced: %+.1f%%\n", tracedMs, plainMs, vals["trace.overhead_pct"])

	if delta != nil {
		keys := make([]string, 0, len(delta))
		for k := range delta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stdout, "   obs counts per op:")
		for _, k := range keys {
			if delta[k] != 0 {
				fmt.Fprintf(stdout, " %s=%.4g", k, delta[k]/float64(len(traced.ops)))
			}
		}
		fmt.Fprintln(stdout)
	}
	if delta != nil && w.name != "shaped_xrack100" {
		gb := float64(len(traced.ops)) * float64(w.bytesPerOp) / 1e9
		total := float64(traced.meter.cpu) / 1e9 / gb
		rows := buildLedger(total,
			ledgerRows(w, func(name string) float64 { return delta[name] / gb }, func(name string) float64 { return layers[name] }))
		tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "ledger: layer\tcalls/GB\tns/call\ts/GB\tshare\t")
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.4f\t%.1f%%\t\n", r.Layer, r.CallsPerGB, r.NsPerCall, r.SPerGB, 100*r.SPerGB/total)
		}
		fmt.Fprintf(tw, "cpu_s_per_GB, measured\t\t\t%.4f\t100.0%%\t\n", total)
		tw.Flush()
		ceiling := "transport.tcp_copy_MBps"
		if w.name == "mem_write_r3" {
			ceiling = "transport.mem_copy_MBps"
		}
		mbps := float64(w.bytesPerOp) / 1e6 / (tracedMs / 1e3)
		fmt.Fprintf(stdout, "   wire_efficiency: %s %.1f MB/s over %s %.1f MB/s = %.2f\n", w.rate, mbps, ceiling, layers[ceiling], mbps/layers[ceiling])
	}
	return tr, vals, ops, failed, nil
}

// referenceClientSpans gives client.*_ms for the workloads that never
// call the client (meta_2w, sim_fig13): one small traced in-memory
// upload and read-back.
func referenceClientSpans(o runOpts) (map[string]float64, error) {
	o.toy, o.tr = true, newTracer()
	inst, err := setupMemWrite(o)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	inst.runSlice(time.Now())
	if err := inst.check(); err != nil {
		return nil, err
	}
	vals := make(map[string]float64)
	for name, v := range selfTimes(o.tr.spans) {
		if strings.HasPrefix(name, "client.") {
			vals[name+"_ms"] = median(v) / 1e6
		}
	}
	return vals, nil
}

// runTraced is `-trace 1` for one workload: every layer alone, then the
// workload traced, then the spans flushed to out/trace-<workload>.jsonl.
func runTraced(stdout io.Writer, w *workload, o runOpts) error {
	layers, err := probeLayers()
	if err != nil {
		return err
	}
	tr, own, ops, failed, err := traceWorkload(stdout, w, o, layers)
	if err != nil {
		return err
	}
	if _, ok := own["client.create_ms"]; !ok {
		ref, err := referenceClientSpans(o)
		if err != nil {
			return err
		}
		for name, v := range ref {
			own[name] = v
		}
		fmt.Fprintf(stdout, "   (%s never calls the client: client.* below come from one small reference upload and read-back)\n", w.name)
	}
	value := func(name string) float64 {
		if v, ok := own[name]; ok {
			return v
		}
		return layers[name]
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer metric\tvalue\tunit\tbetter\tshould move\t")
	defs := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		defs[i] = d.metricDef
		fmt.Fprintf(tw, "%s\t%.5g\t%s\t%s\t%s\t\n", d.Name, value(d.Name), d.Unit, d.Better, d.Moves)
	}
	tw.Flush()
	path := filepath.Join(scratchDir, "trace-"+w.name+".jsonl")
	if err := tr.flush(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# %d spans written to %s\n", len(tr.spans), path)
	printContract(stdout, ops, failed, defs, value)
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	return nil
}
