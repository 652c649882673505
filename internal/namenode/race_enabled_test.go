//go:build race

package namenode

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool deliberately drops puts at random and allocation counts and
// heap sizes are not meaningful.
const raceEnabled = true
