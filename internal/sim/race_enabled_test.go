//go:build race

package sim

// raceEnabled reports that this binary was built with -race, under which
// a paper-scale simulation runs about twenty times slower.
const raceEnabled = true
