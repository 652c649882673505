package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/topology"
)

// fakeView is a deterministic ClusterView: random choices resolve to the
// first eligible name in sorted order (the rng is accepted but unused),
// which makes placement outcomes exact in assertions.
type fakeView struct {
	nodes map[string]string // name -> rack
	reg   *core.Registry
}

func newFakeView(nodes map[string]string) *fakeView {
	return &fakeView{nodes: nodes, reg: core.NewRegistry()}
}

func (v *fakeView) names() []string {
	out := make([]string, 0, len(v.nodes))
	for n := range v.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (v *fakeView) Placeable() []string { return v.names() }

func (v *fakeView) Lookup(name string) (block.DatanodeInfo, bool) {
	if _, ok := v.nodes[name]; !ok {
		return block.DatanodeInfo{}, false
	}
	return block.DatanodeInfo{Name: name, Addr: name + ":1"}, true
}

func (v *fakeView) pick(exclude []string, keep func(name, rack string) bool) (string, bool) {
	excluded := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		excluded[e] = true
	}
	for _, n := range v.names() {
		if !excluded[n] && keep(n, v.nodes[n]) {
			return n, true
		}
	}
	return "", false
}

func (v *fakeView) ChooseRandom(rng *rand.Rand, exclude []string) (string, bool) {
	return v.pick(exclude, func(string, string) bool { return true })
}

func (v *fakeView) ChooseRandomInRack(rng *rand.Rand, rack string, exclude []string) (string, bool) {
	return v.pick(exclude, func(_, r string) bool { return r == rack })
}

func (v *fakeView) ChooseRandomRemoteRack(rng *rand.Rand, ref string, exclude []string) (string, bool) {
	refRack := v.nodes[ref]
	return v.pick(exclude, func(_, r string) bool { return r != refRack })
}

func (v *fakeView) RackOf(name string) (string, bool) {
	r, ok := v.nodes[name]
	return r, ok
}

func (v *fakeView) Registry() *core.Registry { return v.reg }

func twoRackView() *fakeView {
	return newFakeView(map[string]string{
		"dn1": "/rack-a", "dn2": "/rack-a", "dn3": "/rack-a",
		"dn4": "/rack-b", "dn5": "/rack-b", "dn6": "/rack-b",
	})
}

func targetNames(targets []block.DatanodeInfo) []string {
	out := make([]string, len(targets))
	for i, t := range targets {
		out[i] = t.Name
	}
	return out
}

func TestDefaultPlaceRackAwareTail(t *testing.T) {
	view := twoRackView()
	pol, _ := New(Default)
	got, err := pol.Place(view, PlaceInput{
		Client:      "dn1",
		Mode:        proto.ModeHDFS,
		Replication: 3,
		Rng:         rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Client-local first replica, remote-rack second, same-rack-as-second
	// third; the fake resolves "random" to first-sorted, so the outcome
	// is exact.
	want := []string{"dn1", "dn4", "dn5"}
	if !reflect.DeepEqual(targetNames(got), want) {
		t.Fatalf("targets = %v, want %v", targetNames(got), want)
	}
}

func TestDefaultPlaceHonorsExclude(t *testing.T) {
	view := twoRackView()
	pol, _ := New(Default)
	got, err := pol.Place(view, PlaceInput{
		Mode:        proto.ModeHDFS,
		Replication: 2,
		Exclude:     []string{"dn1", "dn2", "dn3", "dn4"},
		Rng:         rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range targetNames(got) {
		if n != "dn5" && n != "dn6" {
			t.Fatalf("excluded node placed: %v", targetNames(got))
		}
	}
	if _, err := pol.Place(view, PlaceInput{
		Mode:        proto.ModeHDFS,
		Replication: 1,
		Exclude:     view.names(),
		Rng:         rand.New(rand.NewSource(1)),
	}); err != ErrNoDatanodes {
		t.Fatalf("all-excluded err = %v, want ErrNoDatanodes", err)
	}
}

// benchCluster is n placeable datanodes on two racks with a speed table
// for "writer" covering all of them: the shape of the benchmark's
// placement probe at n = 9.
func benchCluster(n int) ClusterView {
	m := &model{racks: map[string]string{}, known: map[string]bool{}, reg: core.NewRegistry()}
	topo := topology.New()
	speeds := map[string]float64{}
	for i := 0; i < n; i++ {
		name, rack := fmt.Sprintf("dn%04d", i), fmt.Sprintf("/rack-%d", i%2)
		m.racks[name], m.known[name] = rack, true
		m.placeable = append(m.placeable, name)
		topo.Add(name, rack)
		speeds[name] = float64(40 + 15*(i%23))
	}
	m.reg.Update("writer", speeds)
	return liveView{m, topo}
}

// TestAllocPlace: a SMARTH placement buys the exclusion list it hands the
// view's random choices (an interface call's argument is on the heap),
// the targets it returns and TopN's result; the HDFS path has no TopN.
func TestAllocPlace(t *testing.T) {
	view := benchCluster(9)
	pol, _ := New(Default)
	for _, c := range []struct {
		mode   proto.WriteMode
		budget float64
	}{{proto.ModeSmarth, 3}, {proto.ModeHDFS, 2}} {
		in := PlaceInput{Client: "writer", Mode: c.mode, Replication: 3, Rng: rand.New(rand.NewSource(1))}
		got := testing.AllocsPerRun(200, func() {
			if targets, err := pol.Place(view, in); err != nil || len(targets) != 3 {
				t.Fatalf("Place = %v, %v", targets, err)
			}
		})
		if got > c.budget {
			t.Errorf("mode %v: %.1f allocs per placement, budget %.0f", c.mode, got, c.budget)
		}
	}
}

// BenchmarkPlace times one SMARTH R3 placement against cluster size: a
// placement filters and walks sorted lists it is handed, so it is linear
// in the number of nodes, with TopN's sort of the candidates on top.
func BenchmarkPlace(b *testing.B) {
	pol, _ := New(Default)
	for _, n := range []int{9, 100, 1000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			view := benchCluster(n)
			in := PlaceInput{Client: "writer", Mode: proto.ModeSmarth, Replication: 3, Rng: rand.New(rand.NewSource(1))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if targets, err := pol.Place(view, in); err != nil || len(targets) != 3 {
					b.Fatalf("Place = %v, %v", targets, err)
				}
			}
		})
	}
}
