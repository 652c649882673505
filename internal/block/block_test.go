package block

import (
	"strings"
	"testing"
)

func TestBlockString(t *testing.T) {
	b := Block{ID: 42, Gen: 7, NumBytes: 100}
	s := b.String()
	for _, want := range []string{"blk_42", "7", "100"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func TestDatanodeInfoString(t *testing.T) {
	d := DatanodeInfo{Name: "dn1", Addr: "host:1234", Rack: "/r"}
	if got := d.String(); got != "dn1@host:1234" {
		t.Fatalf("String() = %q", got)
	}
}

func lb() LocatedBlock {
	return LocatedBlock{
		Block: Block{ID: 3},
		Targets: []DatanodeInfo{
			{Name: "a"}, {Name: "b"}, {Name: "c"},
		},
	}
}

func TestNames(t *testing.T) {
	got := lb().Names()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v", got)
		}
	}
}
