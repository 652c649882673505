package wire

import "sync"

// Bounds of the name table. It keeps the names of datanodes — a
// datanode's name, address and rack — so what it holds grows with the
// cluster: the largest benchmark cluster has nine datanodes, some twenty
// names. Client names and paths never go in.
const (
	maxNames   = 512 // the most names the table keeps
	maxNameLen = 128 // the longest name it keeps
)

// nameTable maps a name's bytes to one shared string, so the datanode
// names every addBlock reply, heartbeat and report repeats decode
// without a string each. It only grows and stops at maxNames; a name
// longer than maxNameLen is never kept. Input that sends nothing but new
// names therefore costs at most a full table plus the strings it would
// have cost anyway. The map is made at its full size, so no decode pays
// for its growth. Safe for concurrent use: every connection's read loop
// decodes through it.
type nameTable struct {
	mu sync.Mutex
	m  map[string]string
}

func newNameTable() *nameTable { return &nameTable{m: make(map[string]string, maxNames)} }

// names is the table Reader.Name decodes through.
var names = newNameTable()

// intern returns b as a string: the one the table keeps for these bytes,
// or a fresh copy, kept if the table has room and b is short enough.
func (t *nameTable) intern(b []byte) string {
	if len(b) == 0 || len(b) > maxNameLen {
		return string(b)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[string(b)]; ok { // a lookup by bytes makes no string
		return s
	}
	s := string(b)
	if len(t.m) < maxNames {
		t.m[s] = s
	}
	return s
}
