//go:build !race

package photoloop_test

const raceEnabled = false
