package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestMaxPipelines(t *testing.T) {
	cases := []struct{ dn, repl, want int }{
		{9, 3, 3},
		{10, 3, 3},
		{9, 1, 9},
		{2, 3, 1}, // floor but never below 1
		{0, 3, 1},
		{9, 0, 9}, // degenerate replication treated as 1
	}
	for _, c := range cases {
		if got := MaxPipelines(c.dn, c.repl); got != c.want {
			t.Errorf("MaxPipelines(%d,%d) = %d, want %d", c.dn, c.repl, got, c.want)
		}
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record("dn1", 1_000_000, time.Second)
	if got := r.Speed("dn1"); math.Abs(got-1e6) > 1 {
		t.Fatalf("speed = %v, want 1e6", got)
	}
	if got := r.Speed("never"); got != 0 {
		t.Fatalf("unmeasured speed = %v, want 0", got)
	}
	// EWMA moves halfway toward the new measurement.
	r.Record("dn1", 3_000_000, time.Second)
	if got := r.Speed("dn1"); math.Abs(got-2e6) > 1 {
		t.Fatalf("ewma speed = %v, want 2e6", got)
	}
	// Garbage measurements are ignored.
	r.Record("dn1", 0, time.Second)
	r.Record("dn1", 100, 0)
	r.Record("dn1", -5, time.Second)
	if got := r.Speed("dn1"); math.Abs(got-2e6) > 1 {
		t.Fatalf("speed after garbage = %v, want unchanged 2e6", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRecorderSnapshotIsCopy(t *testing.T) {
	r := NewRecorder()
	r.Record("dn1", 100, time.Second)
	snap := r.Snapshot()
	snap["dn1"] = 999
	if r.Speed("dn1") == 999 {
		t.Fatal("snapshot mutation leaked into recorder")
	}
}

func TestRegistryUpdateAndTopN(t *testing.T) {
	g := NewRegistry()
	if g.HasRecords("c1") {
		t.Fatal("empty registry claims records")
	}
	g.Update("c1", map[string]float64{"dn1": 100, "dn2": 300, "dn3": 200})
	if !g.HasRecords("c1") {
		t.Fatal("registry lost records")
	}
	candidates := []string{"dn1", "dn2", "dn3", "dn4"}
	top := g.TopN("c1", 2, candidates)
	if len(top) != 2 || top[0] != "dn2" || top[1] != "dn3" {
		t.Fatalf("TopN = %v, want [dn2 dn3]", top)
	}
	// Unmeasured nodes rank last but remain eligible.
	all := g.TopN("c1", 10, candidates)
	if len(all) != 4 || all[3] != "dn4" {
		t.Fatalf("TopN(10) = %v, want dn4 last", all)
	}
	// Per-client isolation.
	if g.HasRecords("c2") {
		t.Fatal("records bled across clients")
	}
}

func TestRegistryMergeSemantics(t *testing.T) {
	g := NewRegistry()
	g.Update("c", map[string]float64{"dn1": 100, "dn2": 200})
	g.Update("c", map[string]float64{"dn1": 500}) // dn2 must survive
	speeds := g.Speeds("c")
	if speeds["dn1"] != 500 || speeds["dn2"] != 200 {
		t.Fatalf("speeds = %v", speeds)
	}
	g.Update("c", nil) // no-op
	if !g.HasRecords("c") {
		t.Fatal("nil update cleared records")
	}
}

func TestRegistryForgetClient(t *testing.T) {
	g := NewRegistry()
	g.Update("c1", map[string]float64{"dn1": 1, "dn2": 2})
	g.Update("c2", map[string]float64{"dn1": 3})
	g.ForgetClient("c1")
	if g.HasRecords("c1") {
		t.Fatal("ForgetClient left records")
	}
	if !g.HasRecords("c2") {
		t.Fatal("ForgetClient dropped another client's records")
	}
}

func TestTopNTieBreakDeterministic(t *testing.T) {
	g := NewRegistry()
	g.Update("c", map[string]float64{"dnB": 100, "dnA": 100, "dnC": 100})
	top := g.TopN("c", 3, []string{"dnC", "dnB", "dnA"})
	want := []string{"dnA", "dnB", "dnC"}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("tie break order = %v, want %v", top, want)
		}
	}
}

func TestTopNEdgeCases(t *testing.T) {
	g := NewRegistry()
	if got := g.TopN("c", 0, []string{"a"}); got != nil {
		t.Fatalf("TopN(0) = %v, want nil", got)
	}
	if got := g.TopN("c", 3, nil); got != nil {
		t.Fatalf("TopN(no candidates) = %v, want nil", got)
	}
}

func TestLocalOptimizeSortsBySpeed(t *testing.T) {
	speeds := map[string]float64{"a": 10, "b": 30, "c": 20}
	// Seed 1's first Float64 is ≈0.60 ≤ SwapThreshold, so no swap occurs
	// and the result must be the pure speed-descending sort.
	rng := rand.New(rand.NewSource(1))
	if probe := rand.New(rand.NewSource(1)); probe.Float64() > SwapThreshold {
		t.Fatal("test premise broken: seed 1 should not trigger a swap")
	}
	targets := []string{"a", "b", "c"}
	if swapped := LocalOptimize(targets, func(dn string) float64 { return speeds[dn] }, rng); swapped {
		t.Fatal("unexpected swap with seed 1")
	}
	want := []string{"b", "c", "a"}
	for i := range want {
		if targets[i] != want[i] {
			t.Fatalf("sorted order = %v, want %v", targets, want)
		}
	}
}

func TestLocalOptimizeSwapProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	speeds := func(string) float64 { return 0 }
	swaps := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		targets := []string{"a", "b", "c"}
		if LocalOptimize(targets, speeds, rng) {
			swaps++
			if targets[0] == "a" {
				t.Fatal("swap reported but head unchanged")
			}
		}
	}
	rate := float64(swaps) / trials
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("swap rate = %.3f, want ≈ 0.2", rate)
	}
}

func TestLocalOptimizeShortSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if LocalOptimize(nil, func(string) float64 { return 0 }, rng) {
		t.Fatal("nil slice swapped")
	}
	one := []string{"solo"}
	if LocalOptimize(one, func(string) float64 { return 0 }, rng) {
		t.Fatal("singleton swapped")
	}
}

// Property: LocalOptimize always returns a permutation of its input, and
// without a swap the output is sorted by descending speed.
func TestQuickLocalOptimizePermutation(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		n := len(raw)
		if n > 12 {
			raw = raw[:12]
			n = 12
		}
		targets := make([]string, n)
		speeds := make(map[string]float64, n)
		for i, v := range raw {
			name := string(rune('a'+i%26)) + string(rune('0'+i/26))
			targets[i] = name
			speeds[name] = float64(v)
		}
		orig := append([]string(nil), targets...)
		rng := rand.New(rand.NewSource(seed))
		swapped := LocalOptimize(targets, func(dn string) float64 { return speeds[dn] }, rng)

		// Permutation check.
		a := append([]string(nil), orig...)
		b := append([]string(nil), targets...)
		sort.Strings(a)
		sort.Strings(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		if !swapped {
			for i := 1; i < len(targets); i++ {
				if speeds[targets[i-1]] < speeds[targets[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopN returns a prefix of the full speed-sorted candidate
// order, for any speed table.
func TestQuickTopNPrefix(t *testing.T) {
	f := func(vals []uint16, nRaw uint8) bool {
		g := NewRegistry()
		records := map[string]float64{}
		var candidates []string
		for i, v := range vals {
			if i >= 16 {
				break
			}
			name := string(rune('a' + i))
			records[name] = float64(v)
			candidates = append(candidates, name)
		}
		if len(candidates) == 0 {
			return true
		}
		g.Update("c", records)
		full := g.TopN("c", len(candidates), candidates)
		n := int(nRaw)%len(candidates) + 1
		part := g.TopN("c", n, candidates)
		if len(part) != n {
			return false
		}
		for i := range part {
			if part[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refTopN is TopN as it was when it ordered through sort.Slice: the
// reference the current one is held to.
func refTopN(table map[string]float64, n int, candidates []string) []string {
	if n <= 0 || len(candidates) == 0 {
		return nil
	}
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

// TestTopNMatchesReference: random tables with many tied speeds and
// unmeasured candidates, below and above the size that fits TopN's frame.
func TestTopNMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewSource(11))
	for round := 0; round < 500; round++ {
		table := map[string]float64{}
		var candidates []string
		for i, n := 0, 1+gen.Intn(80); i < n; i++ {
			dn := "dn" + string(rune('A'+i/26)) + string(rune('a'+i%26))
			if gen.Intn(4) > 0 {
				table[dn] = float64(gen.Intn(6)) // few values: ties are the rule
			}
			if gen.Intn(5) > 0 {
				candidates = append(candidates, dn)
			}
		}
		gen.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		g := NewRegistry()
		g.Update("c", table)
		n := gen.Intn(len(candidates) + 3)
		got, want := g.TopN("c", n, candidates), refTopN(table, n, candidates)
		if len(got) != len(want) {
			t.Fatalf("round %d: TopN(%d) returned %d names, reference %d", round, n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: TopN(%d) = %v, reference %v", round, n, got, want)
			}
		}
	}
}

// TestAllocTopN: the only thing TopN buys is its result.
func TestAllocTopN(t *testing.T) {
	g := NewRegistry()
	speeds := map[string]float64{}
	var names []string
	for i := 0; i < 9; i++ {
		names = append(names, "dn"+string(rune('0'+i)))
		speeds[names[i]] = float64(40 + 15*i)
	}
	g.Update("c", speeds)
	if got := testing.AllocsPerRun(100, func() { g.TopN("c", 3, names) }); got > 1 {
		t.Errorf("TopN: %.1f allocs/op, budget 1", got)
	}
}
