//go:build !race

package namenode

const raceEnabled = false
