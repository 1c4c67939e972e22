//go:build race

package server

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation multiplies the CPU cost of every stage and starves small
// hosts, so latency bounds are only asserted without it.
const raceEnabled = true
