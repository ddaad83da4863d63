//go:build race

package device

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions skip under it.
const raceEnabled = true
