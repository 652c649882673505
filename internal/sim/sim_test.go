package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ec2"
	"repro/internal/proto"
	"repro/internal/writesched"
)

const gb = 1 << 30

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return r
}

func improvement(hdfs, smarth Result) float64 {
	return Improvement(hdfs.Duration, smarth.Duration)
}

func TestHomogeneousUnthrottledNoBigGain(t *testing.T) {
	// Figure 5(a,c,e): without throttling, SMARTH ≈ HDFS.
	for _, preset := range []ec2.ClusterPreset{ec2.SmallCluster, ec2.MediumCluster, ec2.LargeCluster} {
		h := run(t, Config{Preset: preset, FileSize: 8 * gb, Mode: proto.ModeHDFS})
		s := run(t, Config{Preset: preset, FileSize: 8 * gb, Mode: proto.ModeSmarth})
		imp := improvement(h, s)
		if imp < -0.05 || imp > 0.15 {
			t.Errorf("%s unthrottled: improvement = %.0f%%, want ≈0", preset.Name, imp*100)
		}
	}
}

func TestTimeProportionalToFileSize(t *testing.T) {
	// Figure 5: upload time scales ~linearly with file size.
	t1 := run(t, Config{Preset: ec2.SmallCluster, FileSize: 1 * gb, Mode: proto.ModeHDFS})
	t8 := run(t, Config{Preset: ec2.SmallCluster, FileSize: 8 * gb, Mode: proto.ModeHDFS})
	ratio := t8.Duration.Seconds() / t1.Duration.Seconds()
	if ratio < 7 || ratio > 9 {
		t.Errorf("8GB/1GB time ratio = %.2f, want ≈8", ratio)
	}
}

func TestThrottledTwoRackGainGrowsAsThrottleTightens(t *testing.T) {
	// Figures 6–9: the tighter the cross-rack throttle, the bigger the
	// SMARTH gain.
	var prev float64 = -1
	for _, throttle := range []float64{150, 100, 50} {
		h := run(t, Config{Preset: ec2.SmallCluster, FileSize: 8 * gb, Mode: proto.ModeHDFS, CrossRackMbps: throttle})
		s := run(t, Config{Preset: ec2.SmallCluster, FileSize: 8 * gb, Mode: proto.ModeSmarth, CrossRackMbps: throttle})
		imp := improvement(h, s)
		if imp <= prev {
			t.Errorf("improvement at %v Mbps = %.0f%%, not greater than at looser throttle (%.0f%%)",
				throttle, imp*100, prev*100)
		}
		if throttle == 50 && imp < 1.0 {
			t.Errorf("improvement at 50 Mbps = %.0f%%, want >100%% (paper: 130%%)", imp*100)
		}
		if throttle == 150 && (imp < 0.15 || imp > 1.2) {
			t.Errorf("improvement at 150 Mbps = %.0f%%, want modest (paper: 27%%)", imp*100)
		}
		prev = imp
	}
}

func TestContentionGainGrowsWithSlowNodes(t *testing.T) {
	// Figure 10: more 50 Mbps-throttled nodes, more SMARTH gain. The
	// trend holds strongly from k=1 to k=3; at k=5 the one-pipeline-per-
	// datanode rule forces SMARTH onto slow first datanodes too (only 4
	// fast nodes remain for 3 concurrent pipelines), so we require only
	// that the k=5 gain stays within 80% of the k=3 gain.
	imps := map[int]float64{}
	for _, k := range []int{1, 3, 5} {
		limits := map[int]float64{}
		for i := 0; i < k; i++ {
			limits[i] = 50
		}
		h := run(t, Config{Preset: ec2.SmallCluster, FileSize: 8 * gb, Mode: proto.ModeHDFS, NodeLimitMbps: limits})
		s := run(t, Config{Preset: ec2.SmallCluster, FileSize: 8 * gb, Mode: proto.ModeSmarth, NodeLimitMbps: limits})
		imps[k] = improvement(h, s)
	}
	if imps[1] < 0.4 {
		t.Errorf("k=1: improvement = %.0f%%, want substantial (paper: 78%%)", imps[1]*100)
	}
	if imps[3] <= imps[1] {
		t.Errorf("improvement k=3 (%.0f%%) not greater than k=1 (%.0f%%)", imps[3]*100, imps[1]*100)
	}
	if imps[5] < 0.8*imps[3] {
		t.Errorf("improvement k=5 (%.0f%%) collapsed below 80%% of k=3 (%.0f%%)", imps[5]*100, imps[3]*100)
	}
}

func TestHeterogeneousMatchesPaperHeadline(t *testing.T) {
	// Figure 13: 8 GB on the heterogeneous cluster. Paper: HDFS 289 s,
	// SMARTH 205 s, 41% faster. The simulator should land in the same
	// regime: HDFS in [240, 340] s, SMARTH in [160, 250] s, improvement
	// in [25%, 60%].
	h := run(t, Config{Preset: ec2.HeteroCluster, FileSize: 8 * gb, Mode: proto.ModeHDFS})
	s := run(t, Config{Preset: ec2.HeteroCluster, FileSize: 8 * gb, Mode: proto.ModeSmarth})
	if sec := h.Duration.Seconds(); sec < 240 || sec > 340 {
		t.Errorf("hetero HDFS = %.0fs, want ≈289s", sec)
	}
	if sec := s.Duration.Seconds(); sec < 160 || sec > 250 {
		t.Errorf("hetero SMARTH = %.0fs, want ≈205s", sec)
	}
	if imp := improvement(h, s); imp < 0.25 || imp > 0.60 {
		t.Errorf("hetero improvement = %.0f%%, want ≈41%%", imp*100)
	}
}

func TestSmarthRespectsPipelineCap(t *testing.T) {
	s := run(t, Config{Preset: ec2.SmallCluster, FileSize: 8 * gb, Mode: proto.ModeSmarth, CrossRackMbps: 50})
	if s.PeakPipelines > 3 {
		t.Errorf("peak pipelines = %d, exceeds cap 9/3=3", s.PeakPipelines)
	}
	if s.PeakPipelines < 2 {
		t.Errorf("peak pipelines = %d under heavy throttle, expected overlap", s.PeakPipelines)
	}
	h := run(t, Config{Preset: ec2.SmallCluster, FileSize: 1 * gb, Mode: proto.ModeHDFS})
	if h.PeakPipelines != 1 {
		t.Errorf("HDFS peak pipelines = %d, want 1 (stop-and-wait)", h.PeakPipelines)
	}
}

func TestMaxPipelinesOverride(t *testing.T) {
	// Ablation: capping SMARTH at 1 pipeline isolates the FNFA-only
	// asynchrony; it must be slower than full multi-pipelining under
	// throttling, but still no slower than HDFS.
	cfg := Config{Preset: ec2.SmallCluster, FileSize: 4 * gb, Mode: proto.ModeSmarth, CrossRackMbps: 50}
	full := run(t, cfg)
	cfg.MaxPipelines = 1
	capped := run(t, cfg)
	if capped.PeakPipelines != 1 {
		t.Fatalf("capped run used %d pipelines", capped.PeakPipelines)
	}
	if capped.Duration <= full.Duration {
		t.Errorf("single-pipeline SMARTH (%v) not slower than multi (%v) under throttle", capped.Duration, full.Duration)
	}
	// Asynchrony without extra pipelines buys almost nothing: a single-
	// pipeline SMARTH still waits for the slot (all acks) before the next
	// block, so it lands within 2% of HDFS.
	h := run(t, Config{Preset: ec2.SmallCluster, FileSize: 4 * gb, Mode: proto.ModeHDFS, CrossRackMbps: 50})
	if capped.Duration.Seconds() > h.Duration.Seconds()*1.02 {
		t.Errorf("single-pipeline SMARTH (%v) more than 2%% slower than HDFS (%v)", capped.Duration, h.Duration)
	}
}

func TestGlobalOptAvoidsSlowFirstNode(t *testing.T) {
	// With one crippled node and global optimization on, SMARTH should
	// rarely choose it as the first datanode once records exist.
	cfg := Config{
		Preset: ec2.SmallCluster, FileSize: 8 * gb, Mode: proto.ModeSmarth,
		NodeLimitMbps: map[int]float64{0: 50}, // dn1 is slow
	}
	r := run(t, cfg)
	slowFirst := r.FirstDatanodeUse["dn1"]
	if slowFirst > r.Blocks/4 {
		t.Errorf("slow node was first datanode for %d/%d blocks, expected rare", slowFirst, r.Blocks)
	}
	// Ablation: with global optimization disabled the slow node gets
	// picked like any other (~1/9 of blocks, plus placement noise).
	cfg.DisableGlobalOpt = true
	cfg.Seed = 3
	r2 := run(t, cfg)
	if r2.FirstDatanodeUse["dn1"] == 0 {
		t.Errorf("with global opt disabled, slow node never chosen first (suspicious placement)")
	}
	if r2.Duration <= r.Duration {
		t.Errorf("disabling global optimization did not hurt: %v <= %v", r2.Duration, r.Duration)
	}
}

func TestCostModelBrackets(t *testing.T) {
	// Formula (2) treats T_w as fully serialized per packet, so it upper
	// bounds the pipelined DES; dropping T_w lower bounds it. The DES
	// must land between the two, near the upper bound.
	p := CostParams{
		D: 8 * gb, B: 64 << 20, P: 64 << 10,
		Tn:      1500 * time.Microsecond,
		Tc:      transferTime(64<<10, 400e6),
		Tw:      transferTime(64<<10, 300e6),
		BminBps: ec2.Small.NetworkBps(),
		BmaxBps: ec2.Small.NetworkBps(),
	}
	upper := HDFSTime(p)
	noTw := p
	noTw.Tw = 0
	lower := HDFSTime(noTw)

	des := run(t, Config{Preset: ec2.SmallCluster, FileSize: 8 * gb, Mode: proto.ModeHDFS})
	if des.Duration < lower || des.Duration > upper {
		t.Errorf("DES %v outside cost-model bracket [%v, %v]", des.Duration, lower, upper)
	}
	// And within 15% of the full formula, since T_w is small.
	ratio := des.Duration.Seconds() / upper.Seconds()
	if ratio < 0.85 || ratio > 1.0 {
		t.Errorf("DES/formula ratio = %.3f, want within 15%% below", ratio)
	}
}

func TestCostModelRegimes(t *testing.T) {
	// When production is slower than transmission, Formula (1) applies
	// and bandwidth stops mattering.
	p := CostParams{
		D: 1 * gb, B: 64 << 20, P: 64 << 10,
		Tn:      time.Millisecond,
		Tc:      10 * time.Millisecond, // very slow producer
		Tw:      time.Millisecond,
		BminBps: 1e9, BmaxBps: 1e9,
	}
	slow := HDFSTime(p)
	p.BminBps = 1e8 // 10x less bandwidth, still faster than production
	if got := HDFSTime(p); got != slow {
		t.Errorf("production-bound time changed with bandwidth: %v vs %v", got, slow)
	}
	// SMARTH formula uses Bmax: with Bmax > Bmin it must be faster in
	// the transmission-bound regime.
	p2 := CostParams{
		D: 1 * gb, B: 64 << 20, P: 64 << 10,
		Tn: time.Millisecond, Tc: 0, Tw: 0,
		BminBps: 50e6 / 8, BmaxBps: 216e6 / 8,
	}
	if SmarthTime(p2) >= HDFSTime(p2) {
		t.Errorf("SMARTH formula (%v) not faster than HDFS formula (%v) with Bmax > Bmin",
			SmarthTime(p2), HDFSTime(p2))
	}
}

func TestImprovementMetric(t *testing.T) {
	if got := Improvement(200*time.Second, 100*time.Second); got != 1.0 {
		t.Errorf("Improvement(200,100) = %v, want 1.0 (i.e. 100%%)", got)
	}
	if got := Improvement(100*time.Second, 0); got != 0 {
		t.Errorf("Improvement with zero smarth time = %v, want 0", got)
	}
}

// TestDeterminism runs each mode twice in one process, unscripted and
// scripted, with the default seed and three mid-block pipeline faults
// (each SMARTH recovery excludes seven datanodes); the second runs
// reuse the scratch the first left, as a RunAll worker does. The whole
// Result (duration, counters, first-use and byte maps, trace spans),
// encoded before the next run so state two runs share cannot alias
// both, and the decision log must match exactly. A wall-clock read, the
// global math/rand source, a map order reaching a decision, or state a
// run leaves in a package variable or a pool for the next run each
// break that.
func TestDeterminism(t *testing.T) {
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{
				Preset: ec2.HeteroCluster, FileSize: gb, Mode: mode, Trace: true,
				PipelineFaults: []PipelineFault{
					{Block: 2, AfterPackets: 5},
					{Block: 9, AfterPackets: 50, BadIndex: 1},
					{Block: 13, AfterPackets: 20, BadIndex: 0},
				},
			}
			sc := newScratch()
			var results [2][]byte
			var logs [2]string
			for i := range results {
				r, err := sc.run(cfg)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if results[i], err = json.Marshal(r); err != nil {
					t.Fatal(err)
				}
				var log writesched.DecisionLog
				scripted := cfg
				scripted.Script = &writesched.Script{Log: &log}
				if _, err := sc.run(scripted); err != nil {
					t.Fatalf("scripted run %d: %v", i, err)
				}
				logs[i] = log.String()
			}
			if !bytes.Equal(results[0], results[1]) {
				t.Fatalf("same config, different results:\n%s\n%s", results[0], results[1])
			}
			if logs[0] != logs[1] {
				t.Fatalf("same scripted config, different decision logs:\n%s\n---\n%s", logs[0], logs[1])
			}
			for _, want := range []string{"recover idx=2", "recover idx=9", "recover idx=13"} {
				if !strings.Contains(logs[0], want) {
					t.Fatalf("decision log lacks %q: a fault did not exercise recovery:\n%s", want, logs[0])
				}
			}
		})
	}
}

func TestSmallFileSingleBlock(t *testing.T) {
	r := run(t, Config{Preset: ec2.SmallCluster, FileSize: 10 << 20, Mode: proto.ModeSmarth})
	if r.Blocks != 1 {
		t.Fatalf("10 MB file used %d blocks, want 1", r.Blocks)
	}
	if r.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
}

func TestMediumLargeSimilar(t *testing.T) {
	// §V-B.1: medium and large clusters perform the same (same NIC).
	m := run(t, Config{Preset: ec2.MediumCluster, FileSize: 8 * gb, Mode: proto.ModeHDFS, CrossRackMbps: 100})
	l := run(t, Config{Preset: ec2.LargeCluster, FileSize: 8 * gb, Mode: proto.ModeHDFS, CrossRackMbps: 100})
	ratio := m.Duration.Seconds() / l.Duration.Seconds()
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("medium/large time ratio = %.3f, want ≈1", ratio)
	}
}

func withMode(c Config, m proto.WriteMode) Config {
	c.Mode = m
	return c
}

func TestDiskSpeedMonotone(t *testing.T) {
	// Future-work sweep: slower disks (higher T_w) must never speed an
	// upload up, and a very slow disk must become the bottleneck.
	var prev time.Duration
	for i, disk := range []float64{1000, 300, 40} {
		r := run(t, Config{Preset: ec2.SmallCluster, FileSize: 1 * gb, Mode: proto.ModeSmarth, DiskMBps: disk, Seed: 6})
		if i > 0 && r.Duration < prev {
			t.Fatalf("disk %v MB/s run (%v) faster than faster-disk run (%v)", disk, r.Duration, prev)
		}
		prev = r.Duration
	}
	// 40 MB/s disk < 27 MB/s NIC? No: 40 > 27, NIC still the bottleneck,
	// but a 10 MB/s disk must dominate.
	slow := run(t, Config{Preset: ec2.SmallCluster, FileSize: 1 * gb, Mode: proto.ModeSmarth, DiskMBps: 10, Seed: 6})
	ideal := float64(1*gb) / 10e6 // seconds at disk speed
	if slow.Duration.Seconds() < ideal {
		t.Fatalf("10 MB/s-disk upload (%v) beat the disk bound (%.0fs)", slow.Duration, ideal)
	}
}

// Property: across many seeds, throttled SMARTH never loses to HDFS, and
// unthrottled SMARTH never loses by more than 5%.
func TestSeedSweepInvariants(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		base := Config{Preset: ec2.SmallCluster, FileSize: 2 * gb, Seed: seed, CrossRackMbps: 100}
		h := run(t, withMode(base, proto.ModeHDFS))
		s := run(t, withMode(base, proto.ModeSmarth))
		if s.Duration > h.Duration {
			t.Errorf("seed %d throttled: SMARTH (%v) slower than HDFS (%v)", seed, s.Duration, h.Duration)
		}

		flat := Config{Preset: ec2.SmallCluster, FileSize: 1 * gb, Seed: seed}
		fh := run(t, withMode(flat, proto.ModeHDFS))
		fs := run(t, withMode(flat, proto.ModeSmarth))
		if fs.Duration.Seconds() > fh.Duration.Seconds()*1.05 {
			t.Errorf("seed %d unthrottled: SMARTH (%v) more than 5%% slower than HDFS (%v)", seed, fs.Duration, fh.Duration)
		}
	}
}

// Property: first-datanode usage across a run sums to the block count
// and never violates placement liveness (conservation check).
func TestFirstUseConservation(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := run(t, Config{Preset: ec2.HeteroCluster, FileSize: 2 * gb, Mode: proto.ModeSmarth, Seed: seed})
		total := 0
		for dn, n := range r.FirstDatanodeUse {
			if n < 0 {
				t.Fatalf("negative use count for %s", dn)
			}
			total += n
		}
		if total != r.Blocks {
			t.Fatalf("seed %d: first-use total %d != blocks %d", seed, total, r.Blocks)
		}
	}
}

// Conservation: every payload byte crosses the client NIC exactly once,
// and the sum of datanode ingress equals FileSize x replication (each
// replica's bytes arrive at exactly one datanode NIC).
func TestByteConservation(t *testing.T) {
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		r := run(t, Config{Preset: ec2.SmallCluster, FileSize: 1 * gb, Mode: mode, Seed: 9})
		if got := r.EgressBytes[ClientName]; got != 1*gb {
			t.Errorf("%v: client egress = %d, want %d", mode, got, 1*gb)
		}
		var dnIngress, dnEgress int64
		for i := 1; i <= 9; i++ {
			name := fmt.Sprintf("dn%d", i)
			dnIngress += r.IngressBytes[name]
			dnEgress += r.EgressBytes[name]
		}
		if want := int64(3) * gb; dnIngress != want {
			t.Errorf("%v: total datanode ingress = %d, want %d (3 replicas)", mode, dnIngress, want)
		}
		// Datanodes forward replication-1 copies of every byte.
		if want := int64(2) * gb; dnEgress != want {
			t.Errorf("%v: total datanode egress = %d, want %d", mode, dnEgress, want)
		}
		if r.IngressBytes[ClientName] != 0 {
			t.Errorf("%v: client ingress = %d, want 0 (acks are latency-only)", mode, r.IngressBytes[ClientName])
		}
	}
}

// Satellite: namenode RPC failures surface as errors from Run, not
// panics. A cluster with zero datanodes makes the very first AddBlock
// fail placement with no retirable pipelines to wait for.
func TestAddBlockFailureSurfacesError(t *testing.T) {
	empty := ec2.ClusterPreset{Name: "empty", Client: ec2.Small}
	_, err := Run(Config{
		Preset: empty, FileSize: 1 << 20, Mode: proto.ModeSmarth,
		BlockSize: 256 << 10, PacketSize: 64 << 10, Seed: 1,
	})
	if err == nil {
		t.Fatal("Run with zero datanodes returned nil error")
	}
	if !strings.Contains(err.Error(), "no available datanodes") {
		t.Fatalf("error = %v, want placement failure", err)
	}
}

// Satellite: an injected pipeline fault mid-block triggers Algorithm 3
// recovery and the upload still completes; the decision log records the
// failure, the recovery RPC, and the successful re-stream.
func TestInjectedFaultRecoversAndCompletes(t *testing.T) {
	for _, mode := range []proto.WriteMode{proto.ModeSmarth, proto.ModeHDFS} {
		t.Run(mode.String(), func(t *testing.T) {
			var log writesched.DecisionLog
			r, err := Run(Config{
				Preset: ec2.SmallCluster, FileSize: 1 << 20, Mode: mode,
				BlockSize: 256 << 10, PacketSize: 64 << 10, Seed: 3,
				Script:         &writesched.Script{Log: &log},
				PipelineFaults: []PipelineFault{{Block: 1, AfterPackets: 2}},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if r.Blocks != 4 {
				t.Fatalf("blocks = %d, want 4", r.Blocks)
			}
			got := log.String()
			for _, want := range []string{"fail idx=1", "recover idx=1 attempt=1", "restream idx=1", "recovered idx=1", "complete path="} {
				if !strings.Contains(got, want) {
					t.Fatalf("decision log missing %q:\n%s", want, got)
				}
			}
		})
	}
}

// Budget: a packet's trip down the pipeline reuses pooled records and
// pre-bound callbacks, so a second 64 MB block (1,024 more packets, three
// hops each) costs only the per-block work — namenode RPC, placement,
// the launch record — which is far less than one allocation per packet.
func TestPacketPathAllocs(t *testing.T) {
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		allocs := func(size int64) float64 {
			cfg := Config{Preset: ec2.HeteroCluster, FileSize: size, Mode: mode, Seed: 4}
			return testing.AllocsPerRun(5, func() { run(t, cfg) })
		}
		const packets = (64 << 20) / proto.DefaultPacketSize
		if perPacket := (allocs(128<<20) - allocs(64<<20)) / packets; perPacket > 1 {
			t.Errorf("%v: %.2f allocations per extra simulated packet, want <= 1", mode, perPacket)
		} else {
			t.Logf("%v: %.3f allocations per extra simulated packet", mode, perPacket)
		}
	}
}

// BenchmarkBlockR3 simulates one 64 MB block through a three-hop
// pipeline: 1,024 packets, 14 events each.
func BenchmarkBlockR3(b *testing.B) {
	for _, mode := range []proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := Config{Preset: ec2.HeteroCluster, FileSize: 64 << 20, Mode: mode, Seed: 4}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure13 is one repetition of the paper's figure 13 at full
// size — eight simulations through RunAll — which is what bench's
// sim_fig13 workload times. Run it with -cpu 1,2 to see the worker pool.
func BenchmarkFigure13(b *testing.B) {
	e, ok := ExperimentByID("figure13")
	if !ok {
		b.Fatal("no figure13")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pts := e.Run(1); len(pts) != 4 {
			b.Fatalf("%d points, want 4", len(pts))
		}
	}
}
