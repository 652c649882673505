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

// The placement path was rewritten to build nothing per decision
// (topology counts and walks its sorted lists, the picker keeps slices,
// TopN sorts in its frame). What it decides — which nodes, and which rng
// draws in which order — is pinned by every seeded golden in the repo, so
// the implementation it replaced stays here as the reference: refView's
// choices, refPicker and refTopN are that code, and
// TestPlaceMatchesReference holds Place to it over random clusters.

// model is a random cluster as a placement sees it.
type model struct {
	racks     map[string]string // every node the topology knows -> rack
	placeable []string          // sorted
	known     map[string]bool   // nodes Lookup resolves
	reg       *core.Registry
}

func (m *model) Placeable() []string      { return m.placeable }
func (m *model) Registry() *core.Registry { return m.reg }
func (m *model) RackOf(name string) (string, bool) {
	r, ok := m.racks[name]
	return r, ok
}
func (m *model) Lookup(name string) (block.DatanodeInfo, bool) {
	if !m.known[name] {
		return block.DatanodeInfo{}, false
	}
	return block.DatanodeInfo{Name: name, Addr: name, Rack: m.racks[name]}, true
}

// liveView answers the random choices from a real topology.
type liveView struct {
	*model
	*topology.Topology
}

func (v liveView) RackOf(name string) (string, bool) { return v.model.RackOf(name) }

// refView answers them the way topology did before: pool, sort, set,
// candidates, draw.
type refView struct{ *model }

func (v refView) choose(rng *rand.Rand, keep func(rack string) bool, excluded []string) (string, bool) {
	excl := make(map[string]bool, len(excluded))
	for _, e := range excluded {
		excl[e] = true
	}
	var pool []string
	for n, rack := range v.racks {
		if keep(rack) {
			pool = append(pool, n)
		}
	}
	sort.Strings(pool)
	var candidates []string
	for _, n := range pool {
		if !excl[n] {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	return candidates[rng.Intn(len(candidates))], true
}

func (v refView) ChooseRandom(rng *rand.Rand, excluded []string) (string, bool) {
	return v.choose(rng, func(string) bool { return true }, excluded)
}
func (v refView) ChooseRandomInRack(rng *rand.Rand, rack string, excluded []string) (string, bool) {
	return v.choose(rng, func(r string) bool { return r == rack }, excluded)
}
func (v refView) ChooseRandomRemoteRack(rng *rand.Rand, ref string, excluded []string) (string, bool) {
	return v.choose(rng, func(r string) bool { return r != v.racks[ref] }, excluded)
}

// refPicker is the picker on maps, with a fresh exclude list per choice.
type refPicker struct {
	view   ClusterView
	rng    *rand.Rand
	picked []block.DatanodeInfo
	used   map[string]bool
	alive  map[string]bool
}

func newRefPicker(view ClusterView, rng *rand.Rand, exclude []string) *refPicker {
	p := &refPicker{
		view:  view,
		rng:   rng,
		used:  make(map[string]bool, len(exclude)+4),
		alive: make(map[string]bool),
	}
	for _, e := range exclude {
		p.used[e] = true
	}
	for _, n := range view.Placeable() {
		p.alive[n] = true
	}
	return p
}

func (p *refPicker) excludeList() []string {
	out := make([]string, 0, len(p.used))
	for n := range p.used {
		out = append(out, n)
	}
	return out
}

func (p *refPicker) add(name string, ok bool) bool {
	if !ok || p.used[name] || !p.alive[name] {
		return false
	}
	info, known := p.view.Lookup(name)
	if !known {
		return false
	}
	p.picked = append(p.picked, info)
	p.used[name] = true
	return true
}

func (p *refPicker) randomAlive() bool {
	excl := p.excludeList()
	for {
		name, ok := p.view.ChooseRandom(p.rng, excl)
		if !ok {
			return false
		}
		if p.add(name, true) {
			return true
		}
		excl = append(excl, name)
	}
}

func (p *refPicker) remoteRackOf(ref string) bool {
	excl := p.excludeList()
	for {
		name, ok := p.view.ChooseRandomRemoteRack(p.rng, ref, excl)
		if !ok {
			return p.randomAlive()
		}
		if p.add(name, true) {
			return true
		}
		excl = append(excl, name)
	}
}

func (p *refPicker) sameRackAs(ref string) bool {
	rack, _ := p.view.RackOf(ref)
	excl := p.excludeList()
	for {
		name, ok := p.view.ChooseRandomInRack(p.rng, rack, excl)
		if !ok {
			return p.randomAlive()
		}
		if p.add(name, true) {
			return true
		}
		excl = append(excl, name)
	}
}

func (p *refPicker) fillTail(replication int) {
	for len(p.picked) < replication {
		switch len(p.picked) {
		case 1:
			if !p.remoteRackOf(p.picked[0].Name) {
				return
			}
		case 2:
			if !p.sameRackAs(p.picked[1].Name) {
				return
			}
		default:
			if !p.randomAlive() {
				return
			}
		}
	}
}

// refTopN is Registry.TopN when it ordered through sort.Slice.
func refTopN(table map[string]float64, n int, candidates []string) []string {
	type entry struct {
		dn    string
		speed float64
	}
	entries := make([]entry, 0, len(candidates))
	for _, dn := range candidates {
		entries = append(entries, entry{dn: dn, speed: table[dn]})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].speed != entries[j].speed {
			return entries[i].speed > entries[j].speed
		}
		return entries[i].dn < entries[j].dn
	})
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = entries[i].dn
	}
	return out
}

// refPlace is Place as it was, second Placeable() and all.
func refPlace(view ClusterView, in PlaceInput) ([]block.DatanodeInfo, error) {
	p := newRefPicker(view, in.Rng, in.Exclude)
	if in.Mode != proto.ModeSmarth || !view.Registry().HasRecords(in.Client) {
		if !p.add(in.Client, true) && !p.randomAlive() {
			return nil, ErrNoDatanodes
		}
		p.fillTail(in.Replication)
		return p.picked, nil
	}
	candidates := make([]string, 0, len(p.alive))
	for _, n := range view.Placeable() {
		if !p.used[n] {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoDatanodes
	}
	n := core.MaxPipelines(len(p.alive), in.Replication)
	topN := refTopN(view.Registry().Speeds(in.Client), n, candidates)
	if !p.add(topN[in.Rng.Intn(len(topN))], true) {
		if !p.randomAlive() {
			return nil, ErrNoDatanodes
		}
	}
	p.fillTail(in.Replication)
	return p.picked, nil
}

// randomCluster draws 1–40 nodes on 1–5 racks. Most are placeable; some
// are dead (known, in the topology, not placeable),
// some are only in the topology (Lookup does not resolve them), and now
// and then one is placeable yet unresolvable.
func randomCluster(gen *rand.Rand) (*model, *topology.Topology) {
	m := &model{racks: map[string]string{}, known: map[string]bool{}, reg: core.NewRegistry()}
	topo := topology.New()
	racks := 1 + gen.Intn(5)
	for i, n := 0, 1+gen.Intn(40); i < n; i++ {
		name, rack := fmt.Sprintf("dn%02d", i), fmt.Sprintf("/r%d", gen.Intn(racks))
		m.racks[name] = rack
		topo.Add(name, rack)
		switch k := gen.Intn(20); {
		case k < 13:
			m.known[name] = true
			m.placeable = append(m.placeable, name)
		case k < 17: // dead
			m.known[name] = true
		case k < 19: // topology only
		default:
			m.placeable = append(m.placeable, name)
		}
	}
	return m, topo
}

func TestPlaceMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	anyName := func() string { return fmt.Sprintf("dn%02d", gen.Intn(45)) } // dn40–dn44 are unknown
	for round := 0; round < 2000; round++ {
		m, topo := randomCluster(gen)
		client := "writer"
		if gen.Intn(3) == 0 {
			client = anyName() // a writer that is a datanode: HDFS puts the first replica there
		}
		if gen.Intn(4) > 0 {
			speeds := map[string]float64{}
			for i, n := 0, gen.Intn(12); i < n; i++ {
				speeds[anyName()] = float64(gen.Intn(5)) // ties are common
			}
			m.reg.Update(client, speeds)
		}
		in := PlaceInput{Client: client, Mode: proto.ModeHDFS, Replication: 1 + gen.Intn(5)}
		if gen.Intn(2) == 0 {
			in.Mode = proto.ModeSmarth
		}
		for i, n := 0, gen.Intn(10); i < n; i++ {
			in.Exclude = append(in.Exclude, anyName()) // repeats and unknown names included
		}
		exclude := append([]string(nil), in.Exclude...)
		seed := gen.Int63()

		in.Rng = rand.New(rand.NewSource(seed))
		got, gotErr := Place(liveView{m, topo}, in)
		gotNext := in.Rng.Int63()

		in.Rng = rand.New(rand.NewSource(seed))
		want, wantErr := refPlace(refView{m}, in)
		wantNext := in.Rng.Int63()

		if gotErr != wantErr || !reflect.DeepEqual(targetNames(got), targetNames(want)) {
			t.Fatalf("round %d (%d nodes, mode %v, R%d, exclude %v): placed %v, %v; reference %v, %v",
				round, len(m.racks), in.Mode, in.Replication, in.Exclude, targetNames(got), gotErr, targetNames(want), wantErr)
		}
		if gotNext != wantNext {
			t.Fatalf("round %d (%d nodes, mode %v, R%d): same targets %v, but the rng is not where the reference left it: a draw was added, dropped or resized",
				round, len(m.racks), in.Mode, in.Replication, targetNames(got))
		}
		if !reflect.DeepEqual(in.Exclude, exclude) {
			t.Fatalf("round %d: Place wrote to the caller's exclude list: %v, was %v", round, in.Exclude, exclude)
		}
	}
}
