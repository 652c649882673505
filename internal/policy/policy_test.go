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
