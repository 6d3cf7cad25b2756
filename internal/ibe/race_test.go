//go:build race

package ibe

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
