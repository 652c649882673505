package ec2

import "testing"

func TestTableI(t *testing.T) {
	if Small.MemoryGB != 1.7 || Small.ECUs != 1 || Small.NetworkMbps != 216 {
		t.Fatalf("Small = %v", Small)
	}
	if Medium.MemoryGB != 3.75 || Medium.ECUs != 2 || Medium.NetworkMbps != 376 {
		t.Fatalf("Medium = %v", Medium)
	}
	if Large.MemoryGB != 7.5 || Large.ECUs != 4 || Large.NetworkMbps != 376 {
		t.Fatalf("Large = %v", Large)
	}
}

func TestMbps(t *testing.T) {
	if got := Mbps(8); got != 1e6 {
		t.Fatalf("Mbps(8) = %v, want 1e6 B/s", got)
	}
	if got := Small.NetworkBps(); got != 216e6/8 {
		t.Fatalf("Small.NetworkBps = %v", got)
	}
}

func TestPresets(t *testing.T) {
	for _, p := range Presets {
		if len(p.Datanodes) != 9 {
			t.Fatalf("preset %s has %d datanodes, want 9", p.Name, len(p.Datanodes))
		}
	}
	h := HeteroCluster
	counts := map[string]int{}
	for _, dn := range h.Datanodes {
		counts[dn.Name]++
	}
	// 3 small + 3 medium (one of the paper's 4 mediums is the namenode) + 3 large.
	if counts["small"] != 3 || counts["medium"] != 3 || counts["large"] != 3 {
		t.Fatalf("hetero composition = %v", counts)
	}
	if h.Client.Name != "medium" {
		t.Fatalf("hetero client = %s, want medium", h.Client.Name)
	}
}

func TestStringer(t *testing.T) {
	if Small.String() == "" {
		t.Fatal("empty String()")
	}
}
