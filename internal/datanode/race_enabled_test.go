//go:build race

package datanode

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool deliberately drops puts at random and allocation counts are
// not meaningful.
const raceEnabled = true
