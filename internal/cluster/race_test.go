//go:build race

package cluster

// raceEnabled reports whether the tests run under the race detector, which
// forces misses of encoding/json's pooled scanner at random and so adds
// allocations.
const raceEnabled = true
