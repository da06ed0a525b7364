//go:build !race

package paradigms

const raceEnabled = false
