//go:build race

package sweep

// raceEnabled reports a -race build, whose sync.Pool drops values at
// random and so defeats allocation ceilings that rely on pooling.
const raceEnabled = true
