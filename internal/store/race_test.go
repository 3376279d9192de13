//go:build race

package store_test

// raceEnabled reports a -race build, whose runtime allocates on its own
// account: allocation-counting tests skip under it.
const raceEnabled = true
