//go:build race

package transport

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
