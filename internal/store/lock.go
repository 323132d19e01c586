package store

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// acquireLock claims an advisory pid lock file, the store's one-writer
// guarantee. The claim is an O_EXCL create — atomic on every
// filesystem we care about — with this process's pid as the contents. A
// lock that already exists is probed: if its owner is provably dead the
// lock is stale (a crashed writer never unlinks) and is broken and
// re-claimed; if the owner may be alive the claim fails with a
// diagnostic naming the pid.
func acquireLock(path string) error {
	for attempt := 0; attempt < 3; attempt++ {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if err == nil {
			_, werr := fmt.Fprintf(f, "%d\n", os.Getpid())
			cerr := f.Close()
			if werr != nil || cerr != nil {
				os.Remove(path)
				return fmt.Errorf("store: writing lock %s: %w", path, werr)
			}
			return nil
		}
		if !os.IsExist(err) {
			return fmt.Errorf("store: %w", err)
		}
		buf, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // holder released between our create and read; retry
			}
			return fmt.Errorf("store: %w", rerr)
		}
		pid, perr := strconv.Atoi(strings.TrimSpace(string(buf)))
		if perr == nil && pid > 0 && !pidAlive(pid) {
			// Stale: the recorded owner is gone. Break the lock and race
			// for it again — the O_EXCL create arbitrates if several
			// processes break it at once.
			os.Remove(path)
			continue
		}
		holder := strings.TrimSpace(string(buf))
		if holder == "" {
			holder = "unknown pid" // lock mid-write by another process
		} else {
			holder = "pid " + holder
		}
		return fmt.Errorf("store: %s is locked by %s (another process has the store open)", path, holder)
	}
	return fmt.Errorf("store: lock %s contested; giving up", path)
}

// releaseLock drops an advisory lock taken by acquireLock. Best-effort:
// a lock that can't be removed is eventually broken as stale once this
// process exits.
func releaseLock(path string) {
	os.Remove(path)
}
