//go:build race

package shard

// raceEnabled reports whether the race detector is compiled in (set by
// the build-tag pair race_on_test.go / race_off_test.go).
const raceEnabled = true
