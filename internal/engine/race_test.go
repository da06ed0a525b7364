//go:build race

package engine_test

// raceEnabled: allocation tests skip under the race detector, whose
// instrumentation allocates.
const raceEnabled = true
