//go:build !race

package rssimap

const raceEnabled = false
