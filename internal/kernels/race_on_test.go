//go:build race

package kernels

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race, whose instrumentation allocates.
const raceEnabled = true
