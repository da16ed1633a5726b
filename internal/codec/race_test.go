//go:build race

package codec_test

// raceEnabled reports a -race build, whose runtime counts allocations of
// its own: allocation pins hold only without it.
const raceEnabled = true
