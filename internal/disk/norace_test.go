//go:build !race

package disk_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
