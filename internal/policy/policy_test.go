package policy

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/proto"
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

func TestNewResolvesBuiltins(t *testing.T) {
	for _, name := range append([]string{""}, Names()...) {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = Default
		}
		if p.Name() != want {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("New(bogus) succeeded")
	}
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

func TestSpeedAwareColdStartFallsBack(t *testing.T) {
	view := twoRackView()
	pol, _ := New(SpeedAware)
	got, err := pol.Place(view, PlaceInput{
		Client:      "client-x",
		Mode:        proto.ModeSmarth,
		Replication: 3,
		Rng:         rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("cold-start placement returned %v", targetNames(got))
	}
}

func TestSpeedAwareArgmaxIsDeterministic(t *testing.T) {
	view := twoRackView()
	pol, _ := New(SpeedAware)
	pol.ObserveHeartbeat("any-client", map[string]float64{
		"dn2": 50e6, "dn5": 120e6, "dn6": 80e6,
	})
	for i := 0; i < 5; i++ {
		got, err := pol.Place(view, PlaceInput{
			Client:      "client-x",
			Mode:        proto.ModeSmarth,
			Replication: 3,
			Rng:         rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		if targetNames(got)[0] != "dn5" {
			t.Fatalf("head = %v, want dn5 (history argmax)", targetNames(got))
		}
	}
	// The placing client's own registry records stack on the history.
	view.reg.Update("client-x", map[string]float64{"dn6": 100e6})
	got, err := pol.Place(view, PlaceInput{
		Client:      "client-x",
		Mode:        proto.ModeSmarth,
		Replication: 3,
		Rng:         rand.New(rand.NewSource(9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if targetNames(got)[0] != "dn6" {
		t.Fatalf("head = %v, want dn6 (registry 100 + history 80 > 120)", targetNames(got))
	}
}

func TestSpeedAwareArgmaxSkipsExcluded(t *testing.T) {
	view := twoRackView()
	pol, _ := New(SpeedAware)
	pol.ObserveHeartbeat("c", map[string]float64{"dn5": 120e6, "dn6": 80e6})
	got, err := pol.Place(view, PlaceInput{
		Client:      "c",
		Mode:        proto.ModeSmarth,
		Replication: 2,
		Exclude:     []string{"dn5"},
		Rng:         rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if targetNames(got)[0] != "dn6" {
		t.Fatalf("head = %v, want dn6", targetNames(got))
	}
}

func TestSpeedAwareOrderPipeline(t *testing.T) {
	pol := newSpeedAware()
	speeds := map[string]float64{"a": 10, "b": 30, "c": 20}
	speedOf := func(n string) float64 { return speeds[n] }

	targets := []string{"a", "b", "c"}
	if swapped := pol.OrderPipeline(0, targets, speedOf, nil); swapped {
		t.Fatal("idx 0 swapped")
	}
	if !reflect.DeepEqual(targets, []string{"b", "c", "a"}) {
		t.Fatalf("order = %v", targets)
	}

	targets = []string{"a", "b", "c"}
	if swapped := pol.OrderPipeline(explorePeriod-1, targets, speedOf, nil); !swapped {
		t.Fatal("exploration block did not swap")
	}
	if !reflect.DeepEqual(targets, []string{"a", "c", "b"}) {
		t.Fatalf("explored order = %v", targets)
	}
}

func TestObserveHeartbeatEWMA(t *testing.T) {
	pol := newSpeedAware()
	pol.ObserveHeartbeat("c1", map[string]float64{"dn1": 100})
	pol.ObserveHeartbeat("c2", map[string]float64{"dn1": 200, "dn2": 0, "dn3": -5})
	pol.mu.Lock()
	defer pol.mu.Unlock()
	if got := pol.history["dn1"]; got != 150 {
		t.Fatalf("dn1 history = %v, want 150", got)
	}
	if _, ok := pol.history["dn2"]; ok {
		t.Fatal("zero-speed sample stored")
	}
	if _, ok := pol.history["dn3"]; ok {
		t.Fatal("negative sample stored")
	}
}
