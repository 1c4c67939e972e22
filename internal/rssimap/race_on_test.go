//go:build race

package rssimap

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of what is put back, so the scratch is re-made and
// the allocation pins cannot hold.
const raceEnabled = true
