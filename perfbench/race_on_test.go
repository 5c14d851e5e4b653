//go:build race

package main

// raceEnabled skips the tiny workload runs under the race detector: they
// train two networks and serve open-loop traffic, which the detector slows
// past the default test timeout and past the 25 ms goodput limit.
const raceEnabled = true
