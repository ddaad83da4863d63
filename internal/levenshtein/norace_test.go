//go:build !race

package levenshtein

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions skip under it (sync.Pool sheds items at random there).
const raceEnabled = false
