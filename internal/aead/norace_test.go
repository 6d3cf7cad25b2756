//go:build !race

package aead

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
