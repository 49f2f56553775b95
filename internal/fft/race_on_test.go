//go:build race

package fft

// raceEnabled reports whether the race detector is instrumenting this build;
// its allocations make AllocsPerRun assertions meaningless.
const raceEnabled = true
