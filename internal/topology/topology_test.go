package topology

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func build(t *testing.T) *Topology {
	t.Helper()
	tp := New()
	tp.Add("dn1", "/rack-a")
	tp.Add("dn2", "/rack-a")
	tp.Add("dn3", "/rack-a")
	tp.Add("dn4", "/rack-b")
	tp.Add("dn5", "/rack-b")
	return tp
}

// TestReAddMovesRack: a re-added node leaves its old rack's choices and
// joins its new rack's, and is still listed once.
func TestReAddMovesRack(t *testing.T) {
	tp := build(t)
	tp.Add("dn1", "/rack-b")
	if r, _ := tp.RackOf("dn1"); r != "/rack-b" {
		t.Fatalf("rack of dn1 = %q, want /rack-b", r)
	}
	if got := fmt.Sprint(tp.Nodes()); got != "[dn1 dn2 dn3 dn4 dn5]" {
		t.Fatalf("nodes after move = %s", got)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		if n, _ := tp.ChooseRandomInRack(rng, "/rack-a", nil); n == "dn1" {
			t.Fatal("dn1 still chosen from its old rack")
		}
		if n, ok := tp.ChooseRandomInRack(rng, "/rack-b", []string{"dn4", "dn5"}); !ok || n != "dn1" {
			t.Fatalf("in-rack choice on the new rack = %q ok=%v, want dn1", n, ok)
		}
		if n, _ := tp.ChooseRandomRemoteRack(rng, "dn4", nil); n == "dn1" {
			t.Fatal("dn1 chosen as remote from its own new rack")
		}
	}
}

func TestDefaultRack(t *testing.T) {
	tp := New()
	tp.Add("solo", "")
	if r, ok := tp.RackOf("solo"); !ok || r != DefaultRack {
		t.Fatalf("rack = %q ok=%v, want %q", r, ok, DefaultRack)
	}
}

func TestDistance(t *testing.T) {
	tp := build(t)
	cases := []struct {
		a, b string
		want int
	}{
		{"dn1", "dn1", 0},
		{"dn1", "dn2", 2},
		{"dn1", "dn4", 4},
		{"dn1", "ghost", 6},
		{"ghost", "phantom2", 6},
	}
	for _, c := range cases {
		if got := tp.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestChooseRandomExclusion(t *testing.T) {
	tp := build(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		n, ok := tp.ChooseRandom(rng, []string{"dn1", "dn2", "dn3", "dn4"})
		if !ok || n != "dn5" {
			t.Fatalf("ChooseRandom = %q ok=%v, want dn5", n, ok)
		}
	}
	if _, ok := tp.ChooseRandom(rng, tp.Nodes()); ok {
		t.Fatal("ChooseRandom succeeded with all nodes excluded")
	}
}

func TestChooseRandomRemoteRack(t *testing.T) {
	tp := build(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		n, ok := tp.ChooseRandomRemoteRack(rng, "dn1", nil)
		if !ok {
			t.Fatal("no remote-rack node found")
		}
		if r, _ := tp.RackOf(n); r == "/rack-a" {
			t.Fatalf("remote-rack choice %q shares rack with dn1", n)
		}
	}
	// Unknown reference: everything qualifies.
	if _, ok := tp.ChooseRandomRemoteRack(rng, "ghost", nil); !ok {
		t.Fatal("unknown ref node should allow any node")
	}
	// Single-rack topology has no remote rack.
	single := New()
	single.Add("a", "/r")
	single.Add("b", "/r")
	if _, ok := single.ChooseRandomRemoteRack(rng, "a", nil); ok {
		t.Fatal("single-rack topology returned a remote-rack node")
	}
}

func TestChooseRandomInRack(t *testing.T) {
	tp := build(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		n, ok := tp.ChooseRandomInRack(rng, "/rack-b", []string{"dn4"})
		if !ok || n != "dn5" {
			t.Fatalf("in-rack choice = %q ok=%v, want dn5", n, ok)
		}
	}
	if _, ok := tp.ChooseRandomInRack(rng, "/no-such-rack", nil); ok {
		t.Fatal("choice from missing rack succeeded")
	}
}

// Property: after an arbitrary sequence of adds and re-adds the node
// list and every node's rack match a model map.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		tp := New()
		model := map[string]string{}
		for _, op := range ops {
			node := fmt.Sprintf("n%d", op%31)
			rack := fmt.Sprintf("/r%d", (op>>5)%7)
			tp.Add(node, rack)
			model[node] = rack
		}
		if fmt.Sprint(tp.Nodes()) != fmt.Sprint(sortedKeys(model)) {
			return false
		}
		for n, r := range model {
			if got, ok := tp.RackOf(n); !ok || got != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Distance is symmetric and satisfies the fixed level values.
func TestQuickDistanceSymmetry(t *testing.T) {
	tp := build(t)
	names := append(tp.Nodes(), "ghost")
	f := func(i, j uint8) bool {
		a := names[int(i)%len(names)]
		b := names[int(j)%len(names)]
		d1, d2 := tp.Distance(a, b), tp.Distance(b, a)
		if d1 != d2 {
			return false
		}
		switch d1 {
		case 0, 2, 4, 6:
			return true
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refChoose is what the three ChooseRandom* did before they counted and
// walked: build the pool, sort it, index the exclusions in a set, collect
// the candidates, draw one. The differential test below holds the
// current implementation to the same draws in the same order.
func refChoose(rng *rand.Rand, nodes map[string]string, keep func(rack string) bool, excluded []string) (string, bool) {
	excl := make(map[string]bool, len(excluded))
	for _, e := range excluded {
		excl[e] = true
	}
	var pool []string
	for n, rack := range nodes {
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

// sortedKeys lists a model's node names in order.
func sortedKeys(model map[string]string) []string {
	keys := make([]string, 0, len(model))
	for n := range model {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	return keys
}

// TestChooseRandomMatchesReference: over random topologies (with nodes
// moved between racks along the way) and exclude lists holding duplicates
// and unknown names, every choice equals the reference's and leaves the
// rng in the same state.
func TestChooseRandomMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		tp, model := New(), map[string]string{}
		racks := 1 + gen.Intn(5)
		for i, n := 0, 1+gen.Intn(40); i < n; i++ {
			name, rack := fmt.Sprintf("dn%d", gen.Intn(60)), fmt.Sprintf("/r%d", gen.Intn(racks))
			tp.Add(name, rack)
			model[name] = rack
		}
		if got, want := fmt.Sprint(tp.Nodes()), fmt.Sprint(sortedKeys(model)); got != want {
			t.Fatalf("round %d: nodes %s, model %s", round, got, want)
		}
		seed := gen.Int63()
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for call := 0; call < 20; call++ {
			var excluded []string
			for i, n := 0, gen.Intn(8); i < n; i++ {
				excluded = append(excluded, fmt.Sprintf("dn%d", gen.Intn(70))) // may repeat, may be unknown
			}
			ref := fmt.Sprintf("dn%d", gen.Intn(70))
			rack := fmt.Sprintf("/r%d", gen.Intn(racks+1))
			var g, w string
			var gok, wok bool
			switch call % 3 {
			case 0:
				g, gok = tp.ChooseRandom(got, excluded)
				w, wok = refChoose(want, model, func(string) bool { return true }, excluded)
			case 1:
				g, gok = tp.ChooseRandomInRack(got, rack, excluded)
				w, wok = refChoose(want, model, func(r string) bool { return r == rack }, excluded)
			case 2:
				g, gok = tp.ChooseRandomRemoteRack(got, ref, excluded)
				w, wok = refChoose(want, model, func(r string) bool { return r != model[ref] }, excluded)
			}
			if g != w || gok != wok {
				t.Fatalf("round %d call %d: chose %q/%v, reference %q/%v (excluded %v)", round, call, g, gok, w, wok, excluded)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("round %d: the rng ended in another state than the reference's", round)
		}
	}
}

// TestAllocChooseRandom: a choice reads the sorted lists and builds
// nothing.
func TestAllocChooseRandom(t *testing.T) {
	tp := New()
	for i := 0; i < 9; i++ {
		tp.Add(fmt.Sprintf("dn%d", i), fmt.Sprintf("/r%d", i%2))
	}
	rng := rand.New(rand.NewSource(1))
	excluded := []string{"dn3", "dn4"}
	for name, choose := range map[string]func(){
		"ChooseRandom":           func() { tp.ChooseRandom(rng, excluded) },
		"ChooseRandomInRack":     func() { tp.ChooseRandomInRack(rng, "/r1", excluded) },
		"ChooseRandomRemoteRack": func() { tp.ChooseRandomRemoteRack(rng, "dn0", excluded) },
	} {
		if got := testing.AllocsPerRun(100, choose); got != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, got)
		}
	}
}
