//go:build !race

package onionbox

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
