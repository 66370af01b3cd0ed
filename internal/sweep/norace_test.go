//go:build !race

package sweep

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
