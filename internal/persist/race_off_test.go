//go:build !race

package persist

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so allocation-count assertions only hold
// without it.
const raceEnabled = false
