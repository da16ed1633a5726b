//go:build !race

package codec_test

const raceEnabled = false
