//go:build !race

package penvelope

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates.
const raceEnabled = false
