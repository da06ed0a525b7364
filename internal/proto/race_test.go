//go:build race

package proto

// raceEnabled: allocation-count tests skip under the race detector,
// whose instrumentation allocates.
const raceEnabled = true
