//go:build race

package prometheus

// raceEnabled reports that the race detector instruments this test
// binary, which makes every timing it takes meaningless.
const raceEnabled = true
