package namenode

import (
	"errors"
	"testing"

	"repro/internal/nnapi"
	"repro/internal/policy"
	"repro/internal/proto"
)

// TestPlaceAllExcluded drives the placement path with every datanode
// excluded: the policy layer must surface ErrNoDatanodes (the alias of
// policy.ErrNoDatanodes the sim matches with errors.Is).
func TestPlaceAllExcluded(t *testing.T) {
	nn, _, names := newTestNN(t)
	_, err := nn.place(proto.ModeHDFS, "", 3, names)
	if !errors.Is(err, ErrNoDatanodes) {
		t.Fatalf("place with all excluded = %v, want ErrNoDatanodes", err)
	}
	if !errors.Is(err, policy.ErrNoDatanodes) {
		t.Fatalf("ErrNoDatanodes must alias policy.ErrNoDatanodes; got %v", err)
	}

	// Exactly one non-excluded node: placement has no choice left.
	got, err := nn.place(proto.ModeHDFS, "", 1, names[1:])
	if err != nil || len(got) != 1 || got[0].Name != names[0] {
		t.Fatalf("place with one candidate = %v, %v; want [%s]", got, err, names[0])
	}
}

// TestReReplicationSingleSurvivingReplica kills two of a block's three
// holders: the lone survivor must be handed a command replacing both,
// and neither replacement may be a holder (live or dead).
func TestReReplicationSingleSurvivingReplica(t *testing.T) {
	nn, clk, names := newTestNN(t)
	completeFileWithReplicas(t, nn, "/f", [][]string{{"dn1", "dn2", "dn3"}})

	// dn1 and dn2 expire while everyone else keeps beating.
	clk.advance(DefaultExpiry / 2)
	beatAll(t, nn, names[2:])
	clk.advance(DefaultExpiry / 2)

	var cmds []nnapi.ReplicateCmd
	for _, n := range names[2:] {
		hb, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(hb.Replicate) > 0 && n != "dn3" {
			t.Fatalf("replication work issued to %s, want only the surviving holder dn3", n)
		}
		cmds = append(cmds, hb.Replicate...)
	}
	if len(cmds) != 1 {
		t.Fatalf("got %d commands, want 1", len(cmds))
	}
	if len(cmds[0].Targets) != 2 {
		t.Fatalf("targets = %v, want 2 replacements for 2 lost replicas", cmds[0].Targets)
	}
	holders := map[string]bool{"dn1": true, "dn2": true, "dn3": true}
	seen := map[string]bool{}
	for _, tgt := range cmds[0].Targets {
		if holders[tgt.Name] {
			t.Fatalf("replacement %s is already a holder (or dead ex-holder)", tgt.Name)
		}
		if seen[tgt.Name] {
			t.Fatalf("duplicate replacement %s", tgt.Name)
		}
		seen[tgt.Name] = true
	}
}

// TestReReplicationRackFullyExcluded arranges rack B to be entirely
// unusable — dn6/dn7 hold the block, dn8 is a dead holder, dn9 is dead
// — so the replacement for the lost replica has to land in rack A.
func TestReReplicationRackFullyExcluded(t *testing.T) {
	nn, clk, names := newTestNN(t)
	completeFileWithReplicas(t, nn, "/f", [][]string{{"dn6", "dn7", "dn8"}})

	// dn8 and dn9 expire; the block drops to 2/3 live replicas with all
	// of rack B either holding it or dead.
	live := names[:7] // dn1..dn7
	clk.advance(DefaultExpiry / 2)
	beatAll(t, nn, live)
	clk.advance(DefaultExpiry / 2)

	var cmds []nnapi.ReplicateCmd
	for _, n := range live {
		hb, err := nn.Heartbeat(nnapi.HeartbeatReq{Name: n})
		if err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, hb.Replicate...)
	}
	if len(cmds) != 1 || len(cmds[0].Targets) != 1 {
		t.Fatalf("commands = %v, want one command with one replacement", cmds)
	}
	got := cmds[0].Targets[0].Name
	rackA := map[string]bool{"dn1": true, "dn2": true, "dn3": true, "dn4": true, "dn5": true}
	if !rackA[got] {
		t.Fatalf("replacement %s not in rack A; rack B is all holders or dead", got)
	}
}
