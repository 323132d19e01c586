//go:build unix

package store

import (
	"errors"
	"syscall"
)

// pidAlive reports whether a process with the pid might still be
// running. Signal 0 probes without signalling: ESRCH proves the pid is
// gone; EPERM proves it exists under another uid; anything else we treat
// as alive — breaking a live writer's lock lets two processes append to
// one log, so only a definitive "no such process" counts as dead.
func pidAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	if err == nil {
		return true
	}
	return !errors.Is(err, syscall.ESRCH)
}
