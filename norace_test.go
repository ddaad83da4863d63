//go:build !race

package repro

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions that rely on sync.Pool skip under it (the pool sheds items at
// random there).
const raceEnabled = false
