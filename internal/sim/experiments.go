package sim

import (
	"errors"
	"fmt"

	"repro/internal/ec2"
	"repro/internal/metrics"
	"repro/internal/proto"
)

// GB is the unit the paper sweeps file sizes in.
const GB int64 = 1 << 30

// Point is one x-axis position of a figure: the HDFS and SMARTH results
// for the same workload.
type Point struct {
	Label  string
	HDFS   Result
	Smarth Result
}

// Improvement is the paper's metric: (t_HDFS - t_SMARTH) / t_SMARTH.
func (p Point) Improvement() float64 {
	return Improvement(p.HDFS.Duration, p.Smarth.Duration)
}

// Experiment reproduces one table or figure.
type Experiment struct {
	// ID matches the paper, e.g. "figure6".
	ID string
	// Title describes the workload.
	Title string
	// Paper states what the paper's version of this figure shows.
	Paper string
	// Run executes the sweep. scale divides the file sizes (1 = the
	// paper's full sizes; larger values make quick runs cheaper while
	// preserving shape).
	Run func(scale int64) []Point
}

// point is one x-axis position before it is run: the workload both
// protocols are measured on (Mode is filled in by runPoints).
type point struct {
	label string
	cfg   Config
}

// runPoints measures both protocols at every point, all 2N simulations
// through RunAll. The figure configs are fixed and known-good, so a
// simulation error here is a harness bug and panics — on the caller's
// goroutine, naming the point.
func runPoints(pts []point) []Point {
	modes := [2]proto.WriteMode{proto.ModeHDFS, proto.ModeSmarth}
	cfgs := make([]Config, 0, 2*len(pts))
	for _, p := range pts {
		for _, mode := range modes {
			p.cfg.Mode = mode
			cfgs = append(cfgs, p.cfg)
		}
	}
	res, err := RunAll(cfgs)
	if err != nil {
		var ce *ConfigError
		errors.As(err, &ce)
		panic(fmt.Sprintf("sim: %s (%v): %v", pts[ce.Index/2].label, modes[ce.Index%2], ce.Err))
	}
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{Label: p.label, HDFS: res[2*i], Smarth: res[2*i+1]}
	}
	return out
}

func scaled(size, scale int64) int64 {
	if scale <= 1 {
		return size
	}
	return size / scale
}

// sizeSweep is Figure 5 / Figure 13's 1–8 GB x-axis.
func sizeSweep(preset ec2.ClusterPreset, crossMbps float64, scale int64) []point {
	var out []point
	for _, gbs := range []int64{1, 2, 4, 8} {
		cfg := Config{
			Preset:        preset,
			FileSize:      scaled(gbs*GB, scale),
			CrossRackMbps: crossMbps,
			Seed:          gbs,
		}
		out = append(out, point{metrics.GB(gbs * GB), cfg})
	}
	return out
}

// throttleSweep is Figures 6–8's x-axis: cross-rack bandwidth.
func throttleSweep(preset ec2.ClusterPreset, scale int64) []point {
	var out []point
	for _, mbpsV := range []float64{50, 100, 150} {
		cfg := Config{
			Preset:        preset,
			FileSize:      scaled(8*GB, scale),
			CrossRackMbps: mbpsV,
			Seed:          int64(mbpsV),
		}
		out = append(out, point{fmt.Sprintf("%.0fMbps", mbpsV), cfg})
	}
	return out
}

// slowNodeSweep is Figures 10–12's x-axis: the number of throttled nodes.
func slowNodeSweep(preset ec2.ClusterPreset, limitMbps float64, maxSlow int, scale int64) []point {
	var out []point
	for k := 0; k <= maxSlow; k++ {
		limits := make(map[int]float64, k)
		for i := 0; i < k; i++ {
			limits[i] = limitMbps
		}
		cfg := Config{
			Preset:        preset,
			FileSize:      scaled(8*GB, scale),
			NodeLimitMbps: limits,
			Seed:          int64(k + 1),
		}
		out = append(out, point{fmt.Sprintf("k=%d", k), cfg})
	}
	return out
}

// Experiments lists every figure of the paper's evaluation in order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:    "figure5a",
			Title: "small cluster, default bandwidth, 1-8GB",
			Paper: "time proportional to size; SMARTH ~= HDFS without throttling",
			Run:   func(scale int64) []Point { return runPoints(sizeSweep(ec2.SmallCluster, 0, scale)) },
		},
		{
			ID:    "figure5b",
			Title: "small cluster, 100Mbps two-rack throttle, 1-8GB",
			Paper: "time proportional to size; SMARTH clearly faster",
			Run:   func(scale int64) []Point { return runPoints(sizeSweep(ec2.SmallCluster, 100, scale)) },
		},
		{
			ID:    "figure5c",
			Title: "medium cluster, default bandwidth, 1-8GB",
			Paper: "same shape as 5a; medium ~= large",
			Run:   func(scale int64) []Point { return runPoints(sizeSweep(ec2.MediumCluster, 0, scale)) },
		},
		{
			ID:    "figure5d",
			Title: "medium cluster, 100Mbps two-rack throttle, 1-8GB",
			Paper: "same shape as 5b",
			Run:   func(scale int64) []Point { return runPoints(sizeSweep(ec2.MediumCluster, 100, scale)) },
		},
		{
			ID:    "figure5e",
			Title: "large cluster, default bandwidth, 1-8GB",
			Paper: "same shape as 5c (same NIC as medium)",
			Run:   func(scale int64) []Point { return runPoints(sizeSweep(ec2.LargeCluster, 0, scale)) },
		},
		{
			ID:    "figure5f",
			Title: "large cluster, 100Mbps two-rack throttle, 1-8GB",
			Paper: "same shape as 5d",
			Run:   func(scale int64) []Point { return runPoints(sizeSweep(ec2.LargeCluster, 100, scale)) },
		},
		{
			ID:    "figure6",
			Title: "small cluster, 8GB, cross-rack throttle 50/100/150Mbps",
			Paper: "improvement 130% @50Mbps down to 27% @150Mbps",
			Run:   func(scale int64) []Point { return runPoints(throttleSweep(ec2.SmallCluster, scale)) },
		},
		{
			ID:    "figure7",
			Title: "medium cluster, 8GB, cross-rack throttle 50/100/150Mbps",
			Paper: "improvement 225% @50Mbps",
			Run:   func(scale int64) []Point { return runPoints(throttleSweep(ec2.MediumCluster, scale)) },
		},
		{
			ID:    "figure8",
			Title: "large cluster, 8GB, cross-rack throttle 50/100/150Mbps",
			Paper: "improvement 245% @50Mbps",
			Run:   func(scale int64) []Point { return runPoints(throttleSweep(ec2.LargeCluster, scale)) },
		},
		{
			ID:    "figure9",
			Title: "improvement vs throttle, all clusters (derived from 6-8)",
			Paper: "tighter throttle => larger improvement, monotone",
			Run: func(scale int64) []Point {
				// The improvement curve is computed from the same sweeps;
				// re-running the small cluster stands in for the combined
				// plot, with clusters compared in the harness output.
				return runPoints(throttleSweep(ec2.SmallCluster, scale))
			},
		},
		{
			ID:    "figure10",
			Title: "small cluster, 8GB, 0-5 nodes throttled to 50Mbps",
			Paper: "78% improvement with one slow node; grows with more",
			Run:   func(scale int64) []Point { return runPoints(slowNodeSweep(ec2.SmallCluster, 50, 5, scale)) },
		},
		{
			ID:    "figure11a",
			Title: "medium cluster, 8GB, 0-5 nodes throttled to 50Mbps",
			Paper: "167% improvement with one slow node",
			Run:   func(scale int64) []Point { return runPoints(slowNodeSweep(ec2.MediumCluster, 50, 5, scale)) },
		},
		{
			ID:    "figure11b",
			Title: "large cluster, 8GB, 0-5 nodes throttled to 50Mbps",
			Paper: "similar to medium (same NIC)",
			Run:   func(scale int64) []Point { return runPoints(slowNodeSweep(ec2.LargeCluster, 50, 5, scale)) },
		},
		{
			ID:    "figure12a",
			Title: "small cluster, 8GB, 0-5 nodes throttled to 150Mbps",
			Paper: "benefit shrinks to ~19%",
			Run:   func(scale int64) []Point { return runPoints(slowNodeSweep(ec2.SmallCluster, 150, 5, scale)) },
		},
		{
			ID:    "figure12b",
			Title: "medium cluster, 8GB, 0-5 nodes throttled to 150Mbps",
			Paper: "benefit ~59%",
			Run:   func(scale int64) []Point { return runPoints(slowNodeSweep(ec2.MediumCluster, 150, 5, scale)) },
		},
		{
			ID:    "figure13",
			Title: "heterogeneous cluster (3 small + 3 medium + 3 large), 1-8GB",
			Paper: "8GB: HDFS 289s vs SMARTH 205s (41% faster)",
			Run:   func(scale int64) []Point { return runPoints(sizeSweep(ec2.HeteroCluster, 0, scale)) },
		},
	}
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// FormatPoints renders a figure's results as a paper-style table.
func FormatPoints(e Experiment, pts []Point) string {
	tb := metrics.NewTable(
		fmt.Sprintf("%s: %s\n(paper: %s)", e.ID, e.Title, e.Paper),
		"x", "HDFS", "SMARTH", "improvement", "peak pipes",
	)
	for _, p := range pts {
		tb.Add(
			p.Label,
			metrics.Seconds(p.HDFS.Duration),
			metrics.Seconds(p.Smarth.Duration),
			metrics.Pct(p.Improvement()),
			fmt.Sprintf("%d", p.Smarth.PeakPipelines),
		)
	}
	return tb.String()
}

// Table1 renders the instance-type catalog (Table I).
func Table1() string {
	tb := metrics.NewTable("Table I: Amazon EC2 instance types",
		"Instance Type", "Memory", "ECUs", "Network")
	for _, t := range ec2.Types {
		tb.Add(t.Name, fmt.Sprintf("%.2f GB", t.MemoryGB), fmt.Sprintf("%d", t.ECUs),
			fmt.Sprintf("~%.0f Mbps", t.NetworkMbps))
	}
	return tb.String()
}
