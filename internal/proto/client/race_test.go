//go:build race

package client

// raceEnabled: allocation-count tests skip under the race detector,
// whose instrumentation allocates.
const raceEnabled = true
