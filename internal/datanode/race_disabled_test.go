//go:build !race

package datanode

const raceEnabled = false
