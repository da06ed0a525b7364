//go:build race

package paradigms

// raceEnabled: allocation tests skip under the race detector, whose
// instrumentation allocates.
const raceEnabled = true
