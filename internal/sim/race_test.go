//go:build race

package sim_test

// raceEnabled trims tests whose cost is single-goroutine simulation
// volume: the race detector slows it ~15x and has no concurrency there
// to check.
const raceEnabled = true
