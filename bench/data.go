package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/ec2"
	"repro/internal/obs"
	"repro/internal/storage"
	workloadgen "repro/internal/workload"
)

const (
	fileBytes = 64 << 20 // one operation of the three unshaped data workloads
	// One pass of shaped_xrack100: the 64 MB / 1 MB-block upload scaled
	// down four times, blocks too, so a pass still opens 64 pipelines
	// but takes 0.7 s instead of 3 s and fits a 2 s slice.
	shapedBytes = 16 << 20
	shapedBlock = 256 << 10
	packetBytes = 64 << 10
	chunkBytes  = 512
	readFiles   = 4 // tcp_read_r3 working set; fits the client metadata cache by design
	warmupFiles = 3
	clientName  = "bench-client"
	// shaped_xrack100 fails a run whose SMARTH gain over HDFS leaves
	// this window.
	gainMinPct, gainMaxPct = 60.0, 105.0
	// livenessWindow is every benchmark cluster's namenode expiry. The
	// cluster default (5 heartbeats = 250 ms) suits fault tests; here
	// nothing is meant to die, and a datanode whose heartbeat loop sits
	// behind a slow disk delete or a descheduled core for that long would
	// be dropped from placement and fail an R3 upload on three datanodes.
	livenessWindow = 30 * time.Second
)

// dataBench is a booted cluster with one client: the shared body of
// mem_write_r3, tcp_write_r3, tcp_read_r3 and shaped_xrack100.
type dataBench struct {
	c       *cluster.Cluster
	cl      *client.Client
	reg     *obs.Registry // nil unless the run is traced
	tr      *tracer       // nil unless the run is traced
	opts    client.WriteOptions
	payload []byte // the seed's bytes; every file holds exactly these
	readBuf []byte // read-back target, compared with payload untimed
	dir     string // DiskStore root ("" for MemStore)
	seq     int    // makes every path unique
	last    string // file kept for the slice's check
}

func newDataBench(o runOpts, tcp bool, cfg cluster.Config, size int, blockSize int64) (*dataBench, error) {
	if o.toy {
		size = 2 << 20
	}
	d := &dataBench{
		tr:   o.tr,
		opts: client.WriteOptions{Replication: 3, BlockSize: blockSize, PacketSize: packetBytes},
	}
	cfg.Seed = o.seed
	cfg.Expiry = livenessWindow
	if o.tr != nil {
		d.reg = obs.NewRegistry()
		cfg.Obs = &obs.Obs{Metrics: d.reg}
	}
	var err error
	if tcp {
		if d.dir, err = os.MkdirTemp(scratchDir, "blocks-"); err != nil {
			return nil, err
		}
		cfg.NewStore = func(name string) (storage.Store, error) {
			return storage.NewDiskStore(filepath.Join(d.dir, name))
		}
		d.c, err = cluster.StartTCP(cfg)
	} else {
		d.c, err = cluster.Start(cfg)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	if d.cl, err = d.c.NewClient(clientName); err != nil {
		d.close()
		return nil, err
	}
	d.payload = workloadgen.Data(o.seed, size)
	d.readBuf = make([]byte, size)
	return d, nil
}

func (d *dataBench) close() {
	if d.c != nil {
		d.c.Stop()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

func (d *dataBench) nextPath() string {
	d.seq++
	return fmt.Sprintf("/bench/f%06d", d.seq)
}

// write uploads one file in packet-sized Write calls, with a span
// around each call into the client.
func (d *dataBench) write(path string, smarth bool, parent *span) error {
	sp := d.tr.start("client.create", parent)
	var w client.Writer
	var err error
	if smarth {
		w, err = d.cl.CreateSmarth(path, d.opts)
	} else {
		w, err = d.cl.CreateHDFS(path, d.opts)
	}
	sp.end()
	if err != nil {
		return err
	}
	sp = d.tr.start("client.stream", parent)
	for off := 0; off < len(d.payload) && err == nil; off += packetBytes {
		_, err = w.Write(d.payload[off:min(off+packetBytes, len(d.payload))])
	}
	sp.end()
	sp = d.tr.start("client.close", parent)
	cerr := w.Close()
	sp.end()
	return errors.Join(err, cerr)
}

// read drains one file into readBuf; the caller compares it.
func (d *dataBench) read(path string, parent *span) error {
	sp := d.tr.start("client.open", parent)
	r, err := d.cl.Open(path)
	sp.end()
	if err != nil {
		return err
	}
	sp = d.tr.start("client.read", parent)
	n, err := io.ReadFull(r, d.readBuf)
	if err == nil {
		// The file must end exactly here.
		if m, _ := r.Read(make([]byte, 1)); m != 0 {
			err = fmt.Errorf("%s: longer than the %d bytes written", path, len(d.payload))
		}
	} else {
		err = fmt.Errorf("%s: read %d of %d bytes: %w", path, n, len(d.payload), err)
	}
	sp.end()
	return errors.Join(err, r.Close())
}

// verify reads path back and compares every byte with the payload.
func (d *dataBench) verify(path string) error {
	clear(d.readBuf)
	if err := d.read(path, nil); err != nil {
		return err
	}
	if !bytes.Equal(d.readBuf, d.payload) {
		return fmt.Errorf("%s: read-back differs from what was written", path)
	}
	return nil
}

func (d *dataBench) remove(path string) error {
	ok, err := d.cl.Delete(path)
	if err == nil && !ok {
		err = fmt.Errorf("%s: delete: no such file", path)
	}
	return err
}

// timedWrite uploads one new file, timed and metered around the upload
// only, and records it in out as an operation (or a failure).
func (d *dataBench) timedWrite(out *sliceOut, name string, smarth bool) string {
	path := d.nextPath()
	out.done(out.timed(d.tr, name, func(root *span) error {
		if err := d.write(path, smarth, root); err != nil {
			return fmt.Errorf("%s %s: %w", name, path, err)
		}
		return nil
	}))
	return path
}

// removeIn deletes path (untimed); a failure counts against the slice.
func (d *dataBench) removeIn(out *sliceOut, path string) {
	if err := d.remove(path); err != nil {
		fmt.Printf("# %v\n", err)
		out.failed++
	}
}

// writeUntil uploads SMARTH files back to back until deadline. Each is
// deleted (untimed) except the last, which is kept in d.last for check
// to read back.
func (d *dataBench) writeUntil(deadline time.Time, out *sliceOut, name string) {
	for {
		path := d.timedWrite(out, name, true)
		if !time.Now().Before(deadline) {
			d.last = path
			return
		}
		d.removeIn(out, path)
	}
}

// writeBench measures uploads: the operation is one 64 MB file.
type writeBench struct{ *dataBench }

func (b writeBench) runSlice(deadline time.Time) sliceOut {
	var out sliceOut
	b.writeUntil(deadline, &out, "write_file")
	return out
}

func (b writeBench) check() error {
	return errors.Join(b.verify(b.last), b.remove(b.last))
}

// setupWrite boots a write workload and warms it with a few files.
func setupWrite(o runOpts, tcp bool, datanodes int, blockSize int64) (instance, error) {
	d, err := newDataBench(o, tcp, cluster.Config{NumDatanodes: datanodes}, fileBytes, blockSize)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupFiles; i++ {
		path := d.nextPath()
		if err := errors.Join(d.write(path, true, nil), d.remove(path)); err != nil {
			d.close()
			return nil, err
		}
	}
	return writeBench{d}, nil
}

func setupMemWrite(o runOpts) (instance, error) { return setupWrite(o, false, 9, 1<<20) }
func setupTCPWrite(o runOpts) (instance, error) { return setupWrite(o, true, 3, 8<<20) }

// readBench measures downloads of a fixed set of files, round-robin.
// Every read is compared with the payload, untimed.
type readBench struct {
	*dataBench
	paths []string
	next  int
}

func (b *readBench) runSlice(deadline time.Time) sliceOut {
	var out sliceOut
	for {
		path := b.paths[b.next%len(b.paths)]
		b.next++
		clear(b.readBuf) // every file holds the same bytes: a read that delivers nothing must not compare equal
		took, err := out.timed(b.tr, "read_file", func(root *span) error { return b.read(path, root) })
		if err == nil && !bytes.Equal(b.readBuf, b.payload) {
			err = fmt.Errorf("%s: payload differs from what was written", path)
		}
		out.done(took, err)
		if !time.Now().Before(deadline) {
			return out
		}
	}
}

func (b *readBench) check() error { return nil } // every read was compared in the slice

func setupTCPRead(o runOpts) (instance, error) {
	d, err := newDataBench(o, true, cluster.Config{NumDatanodes: 3}, fileBytes, 8<<20)
	if err != nil {
		return nil, err
	}
	b := &readBench{dataBench: d}
	for i := 0; i < readFiles; i++ {
		path := d.nextPath()
		if err := d.write(path, true, nil); err != nil {
			d.close()
			return nil, err
		}
		b.paths = append(b.paths, path)
	}
	for _, path := range b.paths { // warm-up: one read of each file
		if err := d.verify(path); err != nil {
			d.close()
			return nil, err
		}
	}
	return b, nil
}

// shapedBench is the paper's mechanism on the live stack: two racks
// with 100 Mbps between them. Each slice uploads the file once under
// HDFS and then under warmed SMARTH until the deadline; the operation
// is the SMARTH pass.
type shapedBench struct {
	*dataBench
	hdfs, smarth []time.Duration // every timed pass so far, for finish
}

func shapedRack(i int) string {
	if i < 5 {
		return "/rack-a"
	}
	return "/rack-b"
}

func (b *shapedBench) runSlice(deadline time.Time) sliceOut {
	var hdfs sliceOut // the HDFS pass is timed, but it is not the operation
	b.removeIn(&hdfs, b.timedWrite(&hdfs, "hdfs_pass", false))
	out := sliceOut{failed: hdfs.failed}
	b.writeUntil(deadline, &out, "smarth_pass")
	if len(out.ops) > 0 && len(hdfs.ops) > 0 {
		smarthMs, hdfsMs := medianMs(out.ops), medianMs(hdfs.ops)
		out.extra = map[string]float64{
			"hdfs_write_MBps": float64(len(b.payload)) / 1e6 / (hdfsMs / 1e3),
			"smarth_gain_pct": (hdfsMs - smarthMs) / smarthMs * 100,
		}
	}
	b.hdfs = append(b.hdfs, hdfs.ops...)
	b.smarth = append(b.smarth, out.ops...)
	return out
}

func (b *shapedBench) check() error {
	return errors.Join(b.verify(b.last), b.remove(b.last))
}

// finish fails the run when SMARTH's gain over HDFS, taken over every
// pass of the run, has left the window: the mechanism the paper claims
// is no longer there (or something made it implausibly large).
func (b *shapedBench) finish() error {
	hdfsMs, smarthMs := medianMs(b.hdfs), medianMs(b.smarth)
	if gain := (hdfsMs - smarthMs) / smarthMs * 100; !(gain >= gainMinPct && gain <= gainMaxPct) {
		return fmt.Errorf("smarth_gain_pct %.1f outside [%g, %g]", gain, gainMinPct, gainMaxPct)
	}
	return nil
}

func setupShaped(o runOpts) (instance, error) {
	preset := ec2.SmallCluster
	cross := ec2.Mbps(100)
	shaper := cluster.NewShaper(nil)
	for i, inst := range preset.Datanodes {
		shaper.SetNode(cluster.DatanodeName(i), shapedRack(i), inst.NetworkBps())
		shaper.SetCrossRackLimit(cluster.DatanodeName(i), cross)
	}
	shaper.SetNode(clientName, "/rack-a", preset.Client.NetworkBps())
	shaper.SetCrossRackLimit(clientName, cross)
	d, err := newDataBench(o, false, cluster.Config{
		NumDatanodes: len(preset.Datanodes), RackFor: shapedRack, Shaper: shaper,
	}, shapedBytes, shapedBlock)
	if err != nil {
		return nil, err
	}
	// Warm-up is the cold SMARTH pass: it fills the speed records the
	// warmed passes place by.
	path := d.nextPath()
	if err := errors.Join(d.write(path, true, nil), d.remove(path)); err != nil {
		d.close()
		return nil, err
	}
	return &shapedBench{dataBench: d}, nil
}
